//! Versioned binary snapshot of the daemon's warm state.
//!
//! A snapshot persists the plan cache a restarted daemon wants back
//! immediately: one record per cache entry, holding the request inputs
//! (`program + topology + config`, keyed by their fingerprint — the
//! material `edit` requests re-seed sessions from) and the outcome they
//! produced (a certified plan or a cached rejection, each with its
//! diagnostics). Certificates are *static artifacts* — Theorem 1
//! labelings don't change between runs — so shipping them beats
//! recomputing them on the whole working set. Nothing a record implies is
//! stored twice: the message-name → label table and the queue count are
//! derived from the program and the plan on decode.
//!
//! # Container layout
//!
//! ```text
//! magic            8 bytes   "SYSSNAP\0"
//! format version   uvarint   (2; any other version is rejected)
//! section count    uvarint
//! per section:
//!   kind           uvarint   (1 = entries; unknown kinds skipped)
//!   payload len    uvarint   (validated against remaining bytes)
//!   content hash   16 bytes  (ContentHasher over the payload, LE)
//!   payload        len bytes (a systolic_core::codec field sequence)
//! ```
//!
//! Each record's fields are tagged: 1 fingerprint, 2 program, 3 topology,
//! 4 config, then exactly one of 5 (certified: plan, labeling method,
//! verify report, analysis micros, diagnostics) or 6 (rejection).
//!
//! Section payloads reuse the core codec (`Encode`/`Decode` with explicit
//! field tags), so the snapshot inherits its forward-compat rules: unknown
//! fields inside records are skipped, unknown *section kinds* are skipped
//! whole, but another *format version* or a failed section hash rejects
//! the load with a typed [`SnapshotError`].
//!
//! # No partial application
//!
//! [`read_snapshot`] decodes the entire file into a staging
//! [`SnapshotData`] before the service installs anything, so a corrupt
//! byte can never leave a half-warmed cache: either the whole snapshot
//! parses or the daemon keeps serving cold. Per-*record* skew (inputs
//! re-fingerprinting differently than recorded, say under a changed
//! fingerprint scheme) is dropped and counted during installation, not an
//! error.

use std::sync::Arc;

use systolic_core::codec::{
    self, decode_nested, decode_str, decode_u128, decode_u64, encode_to_vec, Decode, Encode,
    FieldReader, FieldWriter,
};
use systolic_core::{
    read_uvarint, write_uvarint, AnalysisConfig, CodecError, CommPlan, CoreError, Diagnostic,
};
use systolic_model::{CellId, ContentHasher, Program, Topology};
use systolic_sim::{ReplayDeadlock, VerifyReport};

use crate::service::{Certified, Rejection, ServiceError, ServiceOutcome};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SYSSNAP\0";
/// The one container version this build writes and reads. Version 2
/// stores each plan-cache entry as one record; version-1 files are
/// rejected, so the daemon serves cold.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Section kind holding the plan-cache records.
const SECTION_ENTRIES: u64 = 1;

/// Typed failure of a snapshot read or write. A failed load applies
/// nothing — the daemon keeps serving with a cold cache.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u64,
        /// The version this build reads.
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
                "snapshot format version {found} is not supported; this build reads version \
                 {supported}"
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

/// One plan-cache entry: the request inputs and the outcome they produced.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotEntry {
    /// `request_fingerprint(program, topology, config)` — the plan-cache
    /// key, re-checked against the inputs on load.
    pub fingerprint: u128,
    /// The request's program.
    pub program: Program,
    /// The request's topology.
    pub topology: Topology,
    /// The request's analysis config.
    pub config: AnalysisConfig,
    /// The cached outcome.
    pub outcome: ServiceOutcome,
}

/// Fully decoded snapshot contents, staged before installation so a
/// failed load never partially applies.
#[derive(Default, Debug)]
pub(crate) struct SnapshotData {
    pub entries: Vec<SnapshotEntry>,
}

// ---------------------------------------------------------------------------
// Record codecs (service-side companions of the core codec)
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

// Writes what a certified outcome does not derive from its program and
// plan; `decode_certified` rebuilds the rest. Tags 3 and 4 held the label
// table and queue count in format 1 and stay unused.
impl Encode for Certified {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_nested(1, &self.plan);
        w.put_str(2, self.labeling_method.as_str());
        if let Some(report) = &self.verified {
            w.put_nested(5, &VerifyReportCodec(report.clone()));
        }
        w.put_u64(6, self.analysis_micros);
        for diagnostic in &self.diagnostics {
            w.put_nested(7, diagnostic);
        }
    }
}

/// Decodes the certified outcome recorded for `program`, deriving its
/// label table and queue count through [`Certified::new`]. The plan must
/// label exactly the program's messages, or the derivation would index
/// past the labeling.
fn decode_certified(payload: &[u8], program: &Program) -> Result<Certified, CodecError> {
    let r = FieldReader::parse(payload)?;
    let plan: CommPlan = decode_nested(r.req(1)?)?;
    if plan.labeling().len() != program.num_messages() {
        return Err(CodecError::Invalid(format!(
            "plan labels {} messages but the program declares {}",
            plan.labeling().len(),
            program.num_messages()
        )));
    }
    let method_str = decode_str(r.req(2)?)?;
    let labeling_method = codec::labeling_method_from_str(method_str)
        .ok_or_else(|| CodecError::Invalid(format!("unknown labeling method {method_str:?}")))?;
    let verified = r
        .opt(5)
        .map(decode_nested::<VerifyReportCodec>)
        .transpose()?
        .map(|codec| codec.0);
    let diagnostics = r
        .all(7)
        .map(decode_nested::<Diagnostic>)
        .collect::<Result<Vec<Diagnostic>, CodecError>>()?;
    Ok(Certified::new(
        program,
        Arc::new(plan),
        labeling_method,
        verified,
        decode_u64(r.req(6)?)?,
        diagnostics,
    ))
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
            // Never cached, so never exported: it has no on-disk tag, and
            // the empty record it would leave fails to decode.
            ServiceError::InvalidConfig(_) => {}
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

impl Encode for SnapshotEntry {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_u128(1, self.fingerprint);
        w.put_nested(2, &self.program);
        w.put_nested(3, &self.topology);
        w.put_nested(4, &self.config);
        match self.outcome.as_ref() {
            Ok(certified) => w.put_nested(5, certified),
            Err(rejection) => w.put_nested(6, rejection),
        }
    }
}

impl Decode for SnapshotEntry {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let program: Program = decode_nested(r.req(2)?)?;
        let config: AnalysisConfig = decode_nested(r.req(4)?)?;
        // A restored entry seeds edit sessions, whose analysis indexes an
        // explicit lookahead table by message.
        config.check_covers(&program).map_err(CodecError::Invalid)?;
        let outcome = match (r.opt(5), r.opt(6)) {
            (Some(certified), None) => Ok(decode_certified(certified, &program)?),
            (None, Some(rejection)) => Err(decode_nested::<Rejection>(rejection)?),
            _ => {
                return Err(CodecError::Invalid(
                    "a record holds exactly one outcome, certified or rejected".to_owned(),
                ))
            }
        };
        Ok(SnapshotEntry {
            fingerprint: decode_u128(r.req(1)?)?,
            program,
            topology: decode_nested(r.req(3)?)?,
            config,
            outcome: Arc::new(outcome),
        })
    }
}

impl Encode for SnapshotData {
    fn encode(&self, w: &mut FieldWriter) {
        for entry in &self.entries {
            w.put_nested(1, entry);
        }
    }
}

impl Decode for SnapshotData {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotData {
            entries: r
                .all(1)
                .map(decode_nested::<SnapshotEntry>)
                .collect::<Result<Vec<SnapshotEntry>, CodecError>>()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

/// A container varint ([`read_uvarint`]), with an input that ends inside
/// it reported as the container's own [`SnapshotError::Truncated`].
fn read_container_uvarint(input: &mut &[u8]) -> Result<u64, SnapshotError> {
    read_uvarint(input).map_err(|error| match error {
        CodecError::Truncated => SnapshotError::Truncated,
        other => SnapshotError::Codec(other),
    })
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
    write_uvarint(&mut out, 1);
    push_section(&mut out, SECTION_ENTRIES, &encode_to_vec(data));
    out
}

/// Parses and fully validates a snapshot file into staged contents.
///
/// Every framing check (magic, version, section lengths, per-section
/// content hashes) and every record decode runs before this returns, so a
/// caller that installs the result cannot partially apply a corrupt file.
/// Unknown section kinds are skipped (forward compat); any version other
/// than [`SNAPSHOT_VERSION`] is a typed rejection.
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
    let version = read_container_uvarint(&mut input)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let sections = read_container_uvarint(&mut input)?;
    let mut data = SnapshotData::default();
    for _ in 0..sections {
        let kind = read_container_uvarint(&mut input)?;
        let len = read_container_uvarint(&mut input)?;
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
        // Forward compat: a future writer may append section kinds this
        // build does not know; they are hash-checked (above) and skipped.
        if kind == SECTION_ENTRIES {
            let section = codec::decode_from_slice::<SnapshotData>(payload)?;
            data.entries.extend(section.entries);
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{LabelingMethod, Lookahead, LookaheadLimits};
    use systolic_model::parse_program;
    use systolic_workloads::{fig7, fig7_topology};

    fn sample_data() -> SnapshotData {
        let program = fig7(3);
        let topology = fig7_topology();
        let config = AnalysisConfig::default();
        let fingerprint = systolic_core::request_fingerprint(&program, &topology, &config);
        let analysis = systolic_core::Analyzer::for_topology(&topology, &config)
            .analyze(&program)
            .expect("certifies");
        let certified = Certified::new(
            &program,
            Arc::new(analysis.into_plan()),
            LabelingMethod::Section6,
            Some(VerifyReport {
                completed: true,
                cycles: 42,
                words_delivered: 9,
                deadlock: None,
            }),
            1234,
            Vec::new(),
        );
        SnapshotData {
            entries: vec![SnapshotEntry {
                fingerprint,
                program,
                topology,
                config,
                outcome: Arc::new(Ok(certified)),
            }],
        }
    }

    fn certified(entry: &SnapshotEntry) -> &Certified {
        entry.outcome.as_ref().as_ref().expect("certified")
    }

    #[test]
    fn container_roundtrips() {
        let data = sample_data();
        let bytes = write_snapshot(&data);
        let back = read_snapshot(&bytes).expect("snapshot parses");
        assert_eq!(back.entries.len(), 1);
        let (original, restored) = (&data.entries[0], &back.entries[0]);
        assert_eq!(restored.fingerprint, original.fingerprint);
        assert_eq!(restored.program, original.program);
        assert_eq!(restored.topology, original.topology);
        assert_eq!(restored.config, original.config);
        let (original, restored) = (certified(original), certified(restored));
        assert_eq!(restored.plan.fingerprint(), original.plan.fingerprint());
        assert_eq!(restored.labeling_method, original.labeling_method);
        assert_eq!(restored.message_labels, original.message_labels);
        assert_eq!(
            restored.max_queues_per_interval,
            original.max_queues_per_interval
        );
        assert_eq!(restored.verified, original.verified);
        assert_eq!(restored.analysis_micros, original.analysis_micros);
        assert_eq!(restored.diagnostics, original.diagnostics);
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
        let mut data = sample_data();
        data.entries[0].outcome = Arc::new(Err(rejection.clone()));
        let back = read_snapshot(&write_snapshot(&data)).expect("parses");
        let restored = back.entries[0]
            .outcome
            .as_ref()
            .as_ref()
            .expect_err("rejected");
        assert_eq!(*restored, rejection);
    }

    #[test]
    fn records_that_contradict_their_program_are_invalid() {
        let invalid = |data: &SnapshotData| {
            matches!(
                read_snapshot(&write_snapshot(data)),
                Err(SnapshotError::Codec(CodecError::Invalid(_)))
            )
        };
        // A program with more messages than the plan labels: deriving its
        // label table would index past the labeling.
        let mut data = sample_data();
        data.entries[0].program = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\nmessage C: c0 -> c1\n\
             message D: c0 -> c1\nprogram c0 { W(A) W(B) W(C) W(D) }\n\
             program c1 { R(A) R(B) R(C) R(D) }\n",
        )
        .unwrap();
        assert!(invalid(&data), "a plan short of the program's messages");
        // An explicit lookahead table that misses messages.
        let mut data = sample_data();
        data.entries[0].config.lookahead =
            Lookahead::Explicit(LookaheadLimits::from_table(vec![Some(4)]));
        assert!(invalid(&data), "a lookahead table short of messages");
        // A record holds exactly one outcome.
        let data = sample_data();
        let entry = &data.entries[0];
        for outcomes in [0, 2] {
            let mut record = FieldWriter::default();
            record.put_u128(1, entry.fingerprint);
            record.put_nested(2, &entry.program);
            record.put_nested(3, &entry.topology);
            record.put_nested(4, &entry.config);
            if outcomes == 2 {
                record.put_nested(5, certified(entry));
                record.put_nested(
                    6,
                    &Rejection {
                        error: ServiceError::Panicked("boom".to_owned()),
                        diagnostics: Vec::new(),
                    },
                );
            }
            assert!(
                matches!(
                    codec::decode_from_slice::<SnapshotEntry>(&record.into_bytes()),
                    Err(CodecError::Invalid(_))
                ),
                "a record with {outcomes} outcomes"
            );
        }
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
    fn only_version_2_is_read() {
        for version in [0, 1, SNAPSHOT_VERSION + 1] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&SNAPSHOT_MAGIC);
            write_uvarint(&mut bytes, version);
            write_uvarint(&mut bytes, 0);
            match read_snapshot(&bytes) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, 2));
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
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
        write_uvarint(&mut bytes, SECTION_ENTRIES);
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
        write_uvarint(&mut bytes, 2);
        // A section kind from the future, first in the table.
        push_section(&mut bytes, 77, b"opaque payload from a future build");
        push_section(&mut bytes, SECTION_ENTRIES, &encode_to_vec(&data));
        let back = read_snapshot(&bytes).expect("unknown section skipped");
        assert_eq!(back.entries.len(), 1);
    }
}
