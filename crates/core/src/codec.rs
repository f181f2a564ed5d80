//! Stable binary codec of the disk snapshot.
//!
//! Every persisted analysis artifact — labels, routes, diagnostics,
//! errors, whole [`CommPlan`]s — is expressed once here as a tagged-field
//! encoding. The JSONL wire (`systolic_service::wire`) writes its own
//! lines and shares with the snapshot only the stable-string vocabulary
//! — [`LabelingMethod::as_str`], [`DiagnosticCode::as_str`] and
//! [`Severity::as_str`], whose inverses live here — so wire and disk name
//! a labeling method, a diagnostic code and a severity alike.
//!
//! # Encoding
//!
//! A value is a flat sequence of *fields*. Each field is
//!
//! ```text
//! tag: uvarint   len: uvarint   payload: len bytes
//! ```
//!
//! with LEB128 unsigned varints. Nested structs recurse: their payload is
//! itself a field sequence. Repeated values (labels of a labeling, cells
//! of a route) repeat the same tag. `u128` fingerprints are 16-byte
//! little-endian payloads; signed integers use zigzag varints; strings are
//! UTF-8 payloads.
//!
//! # Forward-compatibility rules
//!
//! - **Unknown field tags are skipped.** A decoder only queries the tags
//!   it knows; anything else in the field sequence is length-delimited and
//!   ignored, so a newer writer can add fields without breaking an older
//!   reader.
//! - **Enums are closed.** Variant discriminants it does not recognise are
//!   rejected with [`CodecError::Invalid`] — an unknown variant cannot be
//!   safely substituted, only refused.
//! - **Corrupt input is a typed error, never a panic.** Every length is
//!   checked against the bytes actually available before anything is
//!   sliced or allocated ([`CodecError::OversizedLength`]), varints are
//!   bounded ([`CodecError::VarintOverflow`]), and every domain invariant
//!   (positive labels, ≥ 2 distinct route cells, plan fingerprint
//!   integrity) is re-validated on decode so that hostile bytes can never
//!   reach a panicking constructor.
//! - **Allocations are bounded by the input.** Decoders never trust a
//!   declared count that exceeds the remaining payload, so a short
//!   malicious input cannot request a huge buffer.

use std::fmt;
use std::sync::Arc;

use systolic_model::{
    parse_program, program_to_text, CellId, Hop, MessageId, MessageRoutes, ModelError, Program,
    Route, Topology,
};

use crate::diagnostics::{Diagnostic, DiagnosticCode, Severity};
use crate::error::CoreError;
use crate::label::Label;
use crate::labeling::Labeling;
use crate::limits::LookaheadLimits;
use crate::pipeline::{AnalysisConfig, LabelingMethod, Lookahead};
use crate::plan::CommPlan;
use crate::requirements::QueueRequirements;
use crate::CompetingSets;

/// Typed decode failure. The decoder rejects malformed input with one of
/// these — it never panics and never partially constructs a value.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before a declared field or varint was complete.
    Truncated,
    /// A length prefix declared more bytes than the input holds; rejected
    /// before any allocation of that size is attempted.
    OversizedLength {
        /// Bytes the length prefix claimed.
        declared: u64,
        /// Bytes actually remaining in the input.
        available: usize,
    },
    /// A varint ran past its 10-byte maximum.
    VarintOverflow,
    /// A required field was absent from the field sequence.
    MissingField {
        /// Tag of the missing field.
        tag: u32,
    },
    /// The bytes parsed but violated a domain invariant (bad enum
    /// discriminant, non-positive label, fingerprint mismatch, …).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::OversizedLength {
                declared,
                available,
            } => write!(
                f,
                "length prefix declares {declared} bytes but only {available} remain"
            ),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::MissingField { tag } => write!(f, "required field {tag} missing"),
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

/// Appends `v` to `buf` as an unsigned LEB128 varint: seven bits per
/// byte, low bits first, the high bit set on every byte but the last (at
/// most 10 bytes).
pub fn write_uvarint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Reads one unsigned LEB128 varint from the front of `input` and
/// advances `input` past it.
///
/// # Errors
///
/// [`CodecError::Truncated`] if `input` ends inside the varint;
/// [`CodecError::VarintOverflow`] if it runs past 10 bytes or its 10th
/// byte holds more than the final bit of a `u64`.
pub fn read_uvarint(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return Err(CodecError::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the final bit of a u64.
        if i == 9 && byte > 0x01 {
            return Err(CodecError::VarintOverflow);
        }
        value |= low << (7 * i);
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(value);
        }
    }
    Err(CodecError::Truncated)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Field writer / reader
// ---------------------------------------------------------------------------

/// Accumulates the tagged fields of one struct being encoded.
///
/// Writers append fields in tag order by convention, but readers do not
/// rely on ordering; repeated fields (same tag) keep their write order.
#[derive(Default, Debug)]
pub struct FieldWriter {
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl FieldWriter {
    fn field(&mut self, tag: u32, payload: &[u8]) {
        write_uvarint(&mut self.buf, u64::from(tag));
        write_uvarint(&mut self.buf, payload.len() as u64);
        self.buf.extend_from_slice(payload);
    }

    /// Appends an unsigned-varint field.
    pub fn put_u64(&mut self, tag: u32, v: u64) {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        write_uvarint(&mut scratch, v);
        self.field(tag, &scratch);
        self.scratch = scratch;
    }

    /// Appends a zigzag-varint field.
    pub fn put_i64(&mut self, tag: u32, v: i64) {
        self.put_u64(tag, zigzag(v));
    }

    /// Appends a 16-byte little-endian `u128` field (fingerprints).
    pub fn put_u128(&mut self, tag: u32, v: u128) {
        self.field(tag, &v.to_le_bytes());
    }

    /// Appends a UTF-8 string field.
    pub fn put_str(&mut self, tag: u32, s: &str) {
        self.field(tag, s.as_bytes());
    }

    /// Appends a raw byte field.
    pub fn put_bytes(&mut self, tag: u32, bytes: &[u8]) {
        self.field(tag, bytes);
    }

    /// Appends a nested struct field (its payload is the child's own
    /// field sequence).
    pub fn put_nested(&mut self, tag: u32, value: &impl Encode) {
        let mut child = FieldWriter::default();
        value.encode(&mut child);
        self.field(tag, &child.buf);
    }

    /// The encoded field sequence.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Parsed view of one struct's field sequence.
///
/// Parsing validates every length prefix against the remaining input
/// before slicing, so a `FieldReader` can be built from hostile bytes
/// without allocating more than the input itself. Tags the caller never
/// queries are the forward-compat skip path.
#[derive(Debug)]
pub struct FieldReader<'a> {
    fields: Vec<(u32, &'a [u8])>,
}

impl<'a> FieldReader<'a> {
    /// Splits `bytes` into `(tag, payload)` fields, rejecting truncated or
    /// oversized prefixes with a typed error.
    pub fn parse(mut bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut fields = Vec::new();
        while !bytes.is_empty() {
            let tag = read_uvarint(&mut bytes)?;
            let tag = u32::try_from(tag)
                .map_err(|_| CodecError::Invalid(format!("field tag {tag} exceeds u32")))?;
            let len = read_uvarint(&mut bytes)?;
            if len > bytes.len() as u64 {
                return Err(CodecError::OversizedLength {
                    declared: len,
                    available: bytes.len(),
                });
            }
            let (payload, rest) = bytes.split_at(len as usize);
            fields.push((tag, payload));
            bytes = rest;
        }
        Ok(FieldReader { fields })
    }

    /// First payload under `tag`, or [`CodecError::MissingField`].
    pub fn req(&self, tag: u32) -> Result<&'a [u8], CodecError> {
        self.opt(tag).ok_or(CodecError::MissingField { tag })
    }

    /// First payload under `tag`, if present.
    #[must_use]
    pub fn opt(&self, tag: u32) -> Option<&'a [u8]> {
        self.fields
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| *payload)
    }

    /// All payloads under `tag`, in write order (repeated fields).
    pub fn all(&self, tag: u32) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.fields
            .iter()
            .filter(move |(t, _)| *t == tag)
            .map(|(_, payload)| *payload)
    }
}

// ---------------------------------------------------------------------------
// Payload decoding helpers
// ---------------------------------------------------------------------------

/// Decodes a whole-payload unsigned varint (trailing bytes are rejected).
pub fn decode_u64(payload: &[u8]) -> Result<u64, CodecError> {
    let mut input = payload;
    let v = read_uvarint(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::Invalid(
            "trailing bytes after varint".to_owned(),
        ));
    }
    Ok(v)
}

/// Decodes a whole-payload zigzag varint.
pub fn decode_i64(payload: &[u8]) -> Result<i64, CodecError> {
    Ok(unzigzag(decode_u64(payload)?))
}

/// Decodes a 16-byte little-endian `u128` payload.
pub fn decode_u128(payload: &[u8]) -> Result<u128, CodecError> {
    let bytes: [u8; 16] = payload
        .try_into()
        .map_err(|_| CodecError::Invalid(format!("u128 payload is {} bytes", payload.len())))?;
    Ok(u128::from_le_bytes(bytes))
}

/// Decodes a UTF-8 string payload.
pub fn decode_str(payload: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(payload).map_err(|_| CodecError::Invalid("non-UTF-8 string".to_owned()))
}

/// Decodes a nested struct payload.
pub fn decode_nested<T: Decode>(payload: &[u8]) -> Result<T, CodecError> {
    T::decode(&FieldReader::parse(payload)?)
}

/// Decodes a `u64` payload that must fit in `usize`.
fn decode_usize(payload: &[u8]) -> Result<usize, CodecError> {
    let v = decode_u64(payload)?;
    usize::try_from(v).map_err(|_| CodecError::Invalid(format!("{v} exceeds usize")))
}

fn decode_u32(payload: &[u8]) -> Result<u32, CodecError> {
    let v = decode_u64(payload)?;
    u32::try_from(v).map_err(|_| CodecError::Invalid(format!("{v} exceeds u32")))
}

// ---------------------------------------------------------------------------
// Traits + top-level entry points
// ---------------------------------------------------------------------------

/// A type with a stable tagged-field encoding.
///
/// Implementations write each field under an explicit tag that is part of
/// the format contract: tags are never reused with a different meaning,
/// and new fields get new tags so old decoders skip them.
pub trait Encode {
    /// Writes this value's fields into `w`.
    fn encode(&self, w: &mut FieldWriter);
}

/// A type decodable from its tagged-field encoding.
///
/// Decoders must query fields by tag (unknown tags are thereby skipped),
/// re-validate every domain invariant, and surface malformed input as a
/// [`CodecError`] — never a panic.
pub trait Decode: Sized {
    /// Reads this value back out of a parsed field sequence.
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes `value` to a standalone byte buffer.
#[must_use]
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = FieldWriter::default();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a standalone byte buffer.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    T::decode(&FieldReader::parse(bytes)?)
}

// ---------------------------------------------------------------------------
// Stable-string vocabulary shared with the JSONL wire
// ---------------------------------------------------------------------------

/// The value of `all` whose stable string is `s`: the inverse of an
/// `as_str` table, derived from it.
fn from_stable_str<T: Copy>(all: &[T], as_str: fn(T) -> &'static str, s: &str) -> Option<T> {
    all.iter().copied().find(|&value| as_str(value) == s)
}

/// Inverse of [`LabelingMethod::as_str`].
#[must_use]
pub fn labeling_method_from_str(s: &str) -> Option<LabelingMethod> {
    from_stable_str(&LabelingMethod::ALL, LabelingMethod::as_str, s)
}

/// Inverse of [`Severity::as_str`].
#[must_use]
pub fn severity_from_str(s: &str) -> Option<Severity> {
    from_stable_str(&Severity::ALL, Severity::as_str, s)
}

/// Inverse of [`DiagnosticCode::as_str`].
#[must_use]
pub fn diagnostic_code_from_str(s: &str) -> Option<DiagnosticCode> {
    from_stable_str(&DiagnosticCode::ALL, DiagnosticCode::as_str, s)
}

// ---------------------------------------------------------------------------
// Label / Labeling
// ---------------------------------------------------------------------------

impl Encode for Label {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_i64(1, self.numerator());
        w.put_i64(2, self.denominator());
    }
}

impl Decode for Label {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let num = decode_i64(r.req(1)?)?;
        let den = decode_i64(r.req(2)?)?;
        // Label::ratio panics on den == 0 or value <= 0; re-validate the
        // type invariant (positive, positive denominator) first.
        if num <= 0 || den <= 0 {
            return Err(CodecError::Invalid(format!(
                "label {num}/{den} is not positive"
            )));
        }
        Ok(Label::ratio(num, den))
    }
}

impl Encode for Labeling {
    fn encode(&self, w: &mut FieldWriter) {
        for (_, label) in self.iter() {
            w.put_nested(1, &label);
        }
    }
}

impl Decode for Labeling {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let labels = r
            .all(1)
            .map(decode_nested::<Label>)
            .collect::<Result<Vec<Label>, CodecError>>()?;
        Ok(Labeling::from_labels(labels))
    }
}

// ---------------------------------------------------------------------------
// Route / MessageRoutes
// ---------------------------------------------------------------------------

impl Encode for Route {
    fn encode(&self, w: &mut FieldWriter) {
        for cell in self.cells() {
            w.put_u64(1, u64::from(cell.as_u32()));
        }
    }
}

impl Decode for Route {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let cells = r
            .all(1)
            .map(|payload| decode_u32(payload).map(CellId::new))
            .collect::<Result<Vec<CellId>, CodecError>>()?;
        // Route::new asserts these; reject bad bytes with a typed error
        // instead of reaching the assertion.
        if cells.len() < 2 {
            return Err(CodecError::Invalid(format!(
                "route has {} cells (needs at least 2)",
                cells.len()
            )));
        }
        if cells.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(CodecError::Invalid(
                "route repeats a cell consecutively".to_owned(),
            ));
        }
        Ok(Route::new(cells))
    }
}

impl Encode for MessageRoutes {
    fn encode(&self, w: &mut FieldWriter) {
        for (_, route) in self.iter() {
            w.put_nested(1, route);
        }
    }
}

impl Decode for MessageRoutes {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let routes = r
            .all(1)
            .map(decode_nested::<Route>)
            .collect::<Result<Vec<Route>, CodecError>>()?;
        Ok(MessageRoutes::from_routes(routes))
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

impl Encode for Diagnostic {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_str(1, self.code().as_str());
        w.put_str(2, self.severity().as_str());
        w.put_str(3, self.message());
        for m in self.message_ids() {
            w.put_u64(4, u64::from(m.as_u32()));
        }
        for c in self.cell_ids() {
            w.put_u64(5, u64::from(c.as_u32()));
        }
    }
}

impl Decode for Diagnostic {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let code_str = decode_str(r.req(1)?)?;
        let code = diagnostic_code_from_str(code_str)
            .ok_or_else(|| CodecError::Invalid(format!("unknown diagnostic code {code_str:?}")))?;
        let severity_str = decode_str(r.req(2)?)?;
        let severity = severity_from_str(severity_str)
            .ok_or_else(|| CodecError::Invalid(format!("unknown severity {severity_str:?}")))?;
        let message = decode_str(r.req(3)?)?.to_owned();
        let messages = r
            .all(4)
            .map(|payload| decode_u32(payload).map(MessageId::new))
            .collect::<Result<Vec<MessageId>, CodecError>>()?;
        let cells = r
            .all(5)
            .map(|payload| decode_u32(payload).map(CellId::new))
            .collect::<Result<Vec<CellId>, CodecError>>()?;
        Ok(Diagnostic::new(code, message)
            .with_severity(severity)
            .with_messages(messages)
            .with_cells(cells))
    }
}

// ---------------------------------------------------------------------------
// ModelError / CoreError
// ---------------------------------------------------------------------------

/// Discriminant used for `ModelError` variants added after this codec was
/// written (the enum is `#[non_exhaustive]` upstream). Encoding one stores
/// only its display text; decoding it is always an [`CodecError::Invalid`].
const MODEL_ERROR_UNKNOWN: u64 = 1000;

impl Encode for ModelError {
    fn encode(&self, w: &mut FieldWriter) {
        match self {
            ModelError::UnknownCell { name } => {
                w.put_u64(1, 0);
                w.put_str(2, name);
            }
            ModelError::UnknownMessage { name } => {
                w.put_u64(1, 1);
                w.put_str(2, name);
            }
            ModelError::DuplicateMessage { name } => {
                w.put_u64(1, 2);
                w.put_str(2, name);
            }
            ModelError::DuplicateCell { name } => {
                w.put_u64(1, 3);
                w.put_str(2, name);
            }
            ModelError::SelfMessage { message, cell } => {
                w.put_u64(1, 4);
                w.put_u64(2, u64::from(message.as_u32()));
                w.put_u64(3, u64::from(cell.as_u32()));
            }
            ModelError::WriteOutsideSender {
                message,
                cell,
                sender,
            } => {
                w.put_u64(1, 5);
                w.put_u64(2, u64::from(message.as_u32()));
                w.put_u64(3, u64::from(cell.as_u32()));
                w.put_u64(4, u64::from(sender.as_u32()));
            }
            ModelError::ReadOutsideReceiver {
                message,
                cell,
                receiver,
            } => {
                w.put_u64(1, 6);
                w.put_u64(2, u64::from(message.as_u32()));
                w.put_u64(3, u64::from(cell.as_u32()));
                w.put_u64(4, u64::from(receiver.as_u32()));
            }
            ModelError::WordCountMismatch {
                message,
                writes,
                reads,
            } => {
                w.put_u64(1, 7);
                w.put_u64(2, u64::from(message.as_u32()));
                w.put_u64(3, *writes as u64);
                w.put_u64(4, *reads as u64);
            }
            ModelError::CellOutOfRange { cell, num_cells } => {
                w.put_u64(1, 8);
                w.put_u64(2, u64::from(cell.as_u32()));
                w.put_u64(3, *num_cells as u64);
            }
            ModelError::CellCountMismatch { program, topology } => {
                w.put_u64(1, 9);
                w.put_u64(2, *program as u64);
                w.put_u64(3, *topology as u64);
            }
            ModelError::NoRoute { from, to } => {
                w.put_u64(1, 10);
                w.put_u64(2, u64::from(from.as_u32()));
                w.put_u64(3, u64::from(to.as_u32()));
            }
            ModelError::Parse { line, message } => {
                w.put_u64(1, 11);
                w.put_u64(2, *line as u64);
                w.put_str(3, message);
            }
            ModelError::SpecParse {
                token,
                offset,
                message,
            } => {
                w.put_u64(1, 12);
                w.put_str(2, token);
                w.put_u64(3, *offset as u64);
                w.put_str(4, message);
            }
            other => {
                w.put_u64(1, MODEL_ERROR_UNKNOWN);
                w.put_str(2, &other.to_string());
            }
        }
    }
}

impl Decode for ModelError {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let variant = decode_u64(r.req(1)?)?;
        let name =
            |tag: u32| -> Result<String, CodecError> { Ok(decode_str(r.req(tag)?)?.to_owned()) };
        let message_id = |tag: u32| -> Result<MessageId, CodecError> {
            decode_u32(r.req(tag)?).map(MessageId::new)
        };
        let cell_id =
            |tag: u32| -> Result<CellId, CodecError> { decode_u32(r.req(tag)?).map(CellId::new) };
        let count = |tag: u32| -> Result<usize, CodecError> { decode_usize(r.req(tag)?) };
        Ok(match variant {
            0 => ModelError::UnknownCell { name: name(2)? },
            1 => ModelError::UnknownMessage { name: name(2)? },
            2 => ModelError::DuplicateMessage { name: name(2)? },
            3 => ModelError::DuplicateCell { name: name(2)? },
            4 => ModelError::SelfMessage {
                message: message_id(2)?,
                cell: cell_id(3)?,
            },
            5 => ModelError::WriteOutsideSender {
                message: message_id(2)?,
                cell: cell_id(3)?,
                sender: cell_id(4)?,
            },
            6 => ModelError::ReadOutsideReceiver {
                message: message_id(2)?,
                cell: cell_id(3)?,
                receiver: cell_id(4)?,
            },
            7 => ModelError::WordCountMismatch {
                message: message_id(2)?,
                writes: count(3)?,
                reads: count(4)?,
            },
            8 => ModelError::CellOutOfRange {
                cell: cell_id(2)?,
                num_cells: count(3)?,
            },
            9 => ModelError::CellCountMismatch {
                program: count(2)?,
                topology: count(3)?,
            },
            10 => ModelError::NoRoute {
                from: cell_id(2)?,
                to: cell_id(3)?,
            },
            11 => ModelError::Parse {
                line: count(2)?,
                message: name(3)?,
            },
            12 => ModelError::SpecParse {
                token: name(2)?,
                offset: count(3)?,
                message: name(4)?,
            },
            other => {
                return Err(CodecError::Invalid(format!(
                    "unrecognised model error variant {other}"
                )))
            }
        })
    }
}

impl Encode for CoreError {
    fn encode(&self, w: &mut FieldWriter) {
        match self {
            CoreError::Model(inner) => {
                w.put_u64(1, 0);
                w.put_nested(2, inner);
            }
            CoreError::ProgramDeadlocked {
                crossed_words,
                remaining_ops,
            } => {
                w.put_u64(1, 1);
                w.put_u64(2, *crossed_words as u64);
                w.put_u64(3, *remaining_ops as u64);
            }
            CoreError::LabelConflict {
                message,
                lower_bound,
                upper_bound,
            } => {
                w.put_u64(1, 2);
                w.put_u64(2, u64::from(message.as_u32()));
                w.put_nested(3, lower_bound);
                w.put_nested(4, upper_bound);
            }
            CoreError::InconsistentLabeling { violations } => {
                w.put_u64(1, 3);
                w.put_u64(2, *violations as u64);
            }
            CoreError::Infeasible {
                hop,
                required,
                available,
            } => {
                w.put_u64(1, 4);
                w.put_u64(2, u64::from(hop.from().as_u32()));
                w.put_u64(3, u64::from(hop.to().as_u32()));
                w.put_u64(4, *required as u64);
                w.put_u64(5, *available as u64);
            }
        }
    }
}

impl Decode for CoreError {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let variant = decode_u64(r.req(1)?)?;
        Ok(match variant {
            0 => CoreError::Model(decode_nested(r.req(2)?)?),
            1 => CoreError::ProgramDeadlocked {
                crossed_words: decode_usize(r.req(2)?)?,
                remaining_ops: decode_usize(r.req(3)?)?,
            },
            2 => CoreError::LabelConflict {
                message: decode_u32(r.req(2)?).map(MessageId::new)?,
                lower_bound: decode_nested(r.req(3)?)?,
                upper_bound: decode_nested(r.req(4)?)?,
            },
            3 => CoreError::InconsistentLabeling {
                violations: decode_usize(r.req(2)?)?,
            },
            4 => {
                let from = decode_u32(r.req(2)?).map(CellId::new)?;
                let to = decode_u32(r.req(3)?).map(CellId::new)?;
                // Hop::new asserts from != to.
                if from == to {
                    return Err(CodecError::Invalid(format!(
                        "infeasible hop from and to are both cell {from}"
                    )));
                }
                CoreError::Infeasible {
                    hop: Hop::new(from, to),
                    required: decode_usize(r.req(4)?)?,
                    available: decode_usize(r.req(5)?)?,
                }
            }
            other => {
                return Err(CodecError::Invalid(format!(
                    "unrecognised core error variant {other}"
                )))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Lookahead / LookaheadLimits / AnalysisConfig
// ---------------------------------------------------------------------------

impl Encode for LookaheadLimits {
    fn encode(&self, w: &mut FieldWriter) {
        // One field per entry: payload byte 0 = unlimited (None), byte 1
        // followed by a uvarint = Some(limit). Entry order is message order.
        let mut entry = Vec::new();
        for limit in self.as_table() {
            entry.clear();
            match limit {
                None => entry.push(0u8),
                Some(n) => {
                    entry.push(1u8);
                    write_uvarint(&mut entry, *n as u64);
                }
            }
            w.put_bytes(1, &entry);
        }
    }
}

impl Decode for LookaheadLimits {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let mut table = Vec::new();
        for payload in r.all(1) {
            let (&kind, mut rest) = payload.split_first().ok_or(CodecError::Truncated)?;
            let entry = match kind {
                0 => None,
                1 => {
                    let n = read_uvarint(&mut rest)?;
                    Some(usize::try_from(n).map_err(|_| {
                        CodecError::Invalid(format!("lookahead limit {n} exceeds usize"))
                    })?)
                }
                other => {
                    return Err(CodecError::Invalid(format!(
                        "unrecognised lookahead entry kind {other}"
                    )))
                }
            };
            if !rest.is_empty() {
                return Err(CodecError::Invalid(
                    "trailing bytes after lookahead entry".to_owned(),
                ));
            }
            table.push(entry);
        }
        Ok(LookaheadLimits::from_table(table))
    }
}

impl Encode for Lookahead {
    fn encode(&self, w: &mut FieldWriter) {
        match self {
            Lookahead::Disabled => w.put_u64(1, 0),
            Lookahead::PerQueueCapacity(capacity) => {
                w.put_u64(1, 1);
                w.put_u64(2, *capacity as u64);
            }
            Lookahead::Explicit(limits) => {
                w.put_u64(1, 2);
                w.put_nested(3, limits);
            }
            Lookahead::Unbounded => w.put_u64(1, 3),
        }
    }
}

impl Decode for Lookahead {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let variant = decode_u64(r.req(1)?)?;
        Ok(match variant {
            0 => Lookahead::Disabled,
            1 => Lookahead::PerQueueCapacity(decode_usize(r.req(2)?)?),
            2 => Lookahead::Explicit(decode_nested(r.req(3)?)?),
            3 => Lookahead::Unbounded,
            other => {
                return Err(CodecError::Invalid(format!(
                    "unrecognised lookahead variant {other}"
                )))
            }
        })
    }
}

impl Encode for AnalysisConfig {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_nested(1, &self.lookahead);
        w.put_u64(2, self.queues_per_interval as u64);
    }
}

impl Decode for AnalysisConfig {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(AnalysisConfig {
            lookahead: decode_nested(r.req(1)?)?,
            queues_per_interval: decode_usize(r.req(2)?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Program / Topology (via their stable text formats)
// ---------------------------------------------------------------------------

impl Encode for Program {
    fn encode(&self, w: &mut FieldWriter) {
        // The canonical text form is the stable encoding
        // (`parse_program(&program_to_text(p)) == p` is a documented,
        // test-locked contract in systolic_model).
        w.put_str(1, &program_to_text(self));
    }
}

impl Decode for Program {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let text = decode_str(r.req(1)?)?;
        parse_program(text).map_err(|e| CodecError::Invalid(format!("program text: {e}")))
    }
}

impl Encode for Topology {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_str(1, &self.spec());
    }
}

impl Decode for Topology {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let spec = decode_str(r.req(1)?)?;
        Topology::from_spec(spec).map_err(|e| CodecError::Invalid(format!("topology spec: {e}")))
    }
}

// ---------------------------------------------------------------------------
// CommPlan
// ---------------------------------------------------------------------------

impl Encode for CommPlan {
    fn encode(&self, w: &mut FieldWriter) {
        // Competing sets and queue requirements are pure functions of the
        // labeling + routes; storing only the inputs plus the plan
        // fingerprint keeps the encoding small and gives decode an
        // end-to-end integrity check.
        w.put_nested(1, self.labeling());
        w.put_nested(2, self.routes());
        w.put_u128(3, self.fingerprint());
    }
}

impl Decode for CommPlan {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let labeling: Labeling = decode_nested(r.req(1)?)?;
        let routes: MessageRoutes = decode_nested(r.req(2)?)?;
        let stored = decode_u128(r.req(3)?)?;
        if labeling.len() != routes.len() {
            return Err(CodecError::Invalid(format!(
                "labeling covers {} messages but routes cover {}",
                labeling.len(),
                routes.len()
            )));
        }
        let competing = CompetingSets::compute(&routes);
        let requirements = QueueRequirements::compute(&competing, &labeling);
        let plan = CommPlan::new(labeling, routes, competing, requirements);
        if plan.fingerprint() != stored {
            return Err(CodecError::Invalid(
                "plan fingerprint mismatch (corrupt or tampered encoding)".to_owned(),
            ));
        }
        Ok(plan)
    }
}

impl<T: Encode> Encode for Arc<T> {
    fn encode(&self, w: &mut FieldWriter) {
        (**self).encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::ProgramBuilder;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn varint_roundtrip_and_bounds() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(read_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        // Truncated: continuation bit set, no next byte.
        let mut slice: &[u8] = &[0x80];
        assert_eq!(read_uvarint(&mut slice), Err(CodecError::Truncated));
        // Overflow: 11 continuation bytes.
        let mut slice: &[u8] = &[0x80; 11];
        assert_eq!(read_uvarint(&mut slice), Err(CodecError::VarintOverflow));
        // Overflow: 10th byte carries more than the final u64 bit.
        let mut long = vec![0xffu8; 9];
        long.push(0x02);
        let mut slice = long.as_slice();
        assert_eq!(read_uvarint(&mut slice), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn oversized_length_prefix_is_typed_error() {
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1); // tag
        write_uvarint(&mut bytes, 1 << 40); // declared length far past input
        bytes.push(0);
        match FieldReader::parse(&bytes) {
            Err(CodecError::OversizedLength { declared, .. }) => {
                assert_eq!(declared, 1 << 40);
            }
            other => panic!("expected OversizedLength, got {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let label = Label::ratio(3, 2);
        let mut w = FieldWriter::default();
        label.encode(&mut w);
        w.put_str(999, "from a future format revision");
        let bytes = w.into_bytes();
        let back: Label = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, label);
    }

    #[test]
    fn missing_field_is_typed_error() {
        let mut w = FieldWriter::default();
        w.put_i64(1, 3); // numerator only, no denominator
        let err = decode_from_slice::<Label>(&w.into_bytes()).unwrap_err();
        assert_eq!(err, CodecError::MissingField { tag: 2 });
    }

    #[test]
    fn non_positive_label_rejected_without_panic() {
        for (num, den) in [(0i64, 1i64), (-3, 2), (3, 0), (3, -2)] {
            let mut w = FieldWriter::default();
            w.put_i64(1, num);
            w.put_i64(2, den);
            let err = decode_from_slice::<Label>(&w.into_bytes()).unwrap_err();
            assert!(matches!(err, CodecError::Invalid(_)), "{num}/{den}: {err}");
        }
    }

    #[test]
    fn degenerate_route_rejected_without_panic() {
        // One cell only.
        let mut w = FieldWriter::default();
        w.put_u64(1, 0);
        assert!(matches!(
            decode_from_slice::<Route>(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
        // Consecutive repeat.
        let mut w = FieldWriter::default();
        w.put_u64(1, 4);
        w.put_u64(1, 4);
        assert!(matches!(
            decode_from_slice::<Route>(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn label_and_labeling_roundtrip() {
        roundtrip(&Label::integer(7));
        roundtrip(&Label::ratio(22, 8));
        roundtrip(&Labeling::from_labels(vec![
            Label::integer(1),
            Label::ratio(3, 2),
            Label::integer(5),
        ]));
        roundtrip(&Labeling::from_labels(Vec::new()));
    }

    #[test]
    fn route_sets_roundtrip() {
        let route = |cells: &[u32]| Route::new(cells.iter().map(|&c| CellId::new(c)).collect());
        roundtrip(&route(&[0, 1, 2, 1]));
        roundtrip(&MessageRoutes::from_routes(vec![
            route(&[0, 1]),
            route(&[2, 1, 0]),
        ]));
    }

    #[test]
    fn diagnostic_roundtrip() {
        let plain = Diagnostic::new(DiagnosticCode::Deadlock, "stuck after 3 words");
        roundtrip(&plain);
        let rich = Diagnostic::new(DiagnosticCode::Section6Fallback, "wedged; solver used")
            .with_severity(Severity::Warning)
            .with_messages([MessageId::new(0), MessageId::new(4)])
            .with_cells([CellId::new(2)]);
        roundtrip(&rich);
    }

    #[test]
    fn unknown_diagnostic_code_rejected() {
        let mut w = FieldWriter::default();
        w.put_str(1, "E-FUTURE-CODE");
        w.put_str(2, "error");
        w.put_str(3, "msg");
        assert!(matches!(
            decode_from_slice::<Diagnostic>(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn model_error_all_variants_roundtrip() {
        let m = MessageId::new(3);
        let c = CellId::new(1);
        let variants = vec![
            ModelError::UnknownCell { name: "p9".into() },
            ModelError::UnknownMessage { name: "X".into() },
            ModelError::DuplicateMessage { name: "A".into() },
            ModelError::DuplicateCell { name: "c0".into() },
            ModelError::SelfMessage {
                message: m,
                cell: c,
            },
            ModelError::WriteOutsideSender {
                message: m,
                cell: c,
                sender: CellId::new(2),
            },
            ModelError::ReadOutsideReceiver {
                message: m,
                cell: c,
                receiver: CellId::new(5),
            },
            ModelError::WordCountMismatch {
                message: m,
                writes: 4,
                reads: 2,
            },
            ModelError::CellOutOfRange {
                cell: CellId::new(9),
                num_cells: 4,
            },
            ModelError::CellCountMismatch {
                program: 4,
                topology: 9,
            },
            ModelError::NoRoute {
                from: c,
                to: CellId::new(3),
            },
            ModelError::Parse {
                line: 7,
                message: "bad token".into(),
            },
            ModelError::SpecParse {
                token: "mesh(".into(),
                offset: 3,
                message: "unclosed".into(),
            },
        ];
        for v in &variants {
            roundtrip(v);
        }
    }

    #[test]
    fn core_error_all_variants_roundtrip() {
        let variants = vec![
            CoreError::Model(ModelError::UnknownCell { name: "q".into() }),
            CoreError::ProgramDeadlocked {
                crossed_words: 12,
                remaining_ops: 3,
            },
            CoreError::LabelConflict {
                message: MessageId::new(2),
                lower_bound: Label::ratio(5, 2),
                upper_bound: Label::integer(2),
            },
            CoreError::InconsistentLabeling { violations: 4 },
            CoreError::Infeasible {
                hop: Hop::new(CellId::new(0), CellId::new(1)),
                required: 3,
                available: 1,
            },
        ];
        for v in &variants {
            roundtrip(v);
        }
    }

    #[test]
    fn unknown_enum_variant_rejected() {
        let mut w = FieldWriter::default();
        w.put_u64(1, 57);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_from_slice::<CoreError>(&bytes),
            Err(CodecError::Invalid(_))
        ));
        assert!(matches!(
            decode_from_slice::<ModelError>(&bytes),
            Err(CodecError::Invalid(_))
        ));
        assert!(matches!(
            decode_from_slice::<Lookahead>(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn degenerate_infeasible_hop_rejected() {
        let mut w = FieldWriter::default();
        w.put_u64(1, 4);
        w.put_u64(2, 3);
        w.put_u64(3, 3); // from == to would panic in Hop::new
        w.put_u64(4, 1);
        w.put_u64(5, 0);
        assert!(matches!(
            decode_from_slice::<CoreError>(&w.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn config_roundtrip_every_lookahead_mode() {
        for lookahead in [
            Lookahead::Disabled,
            Lookahead::PerQueueCapacity(8),
            Lookahead::Explicit(LookaheadLimits::from_table(vec![None, Some(0), Some(17)])),
            Lookahead::Unbounded,
        ] {
            roundtrip(&lookahead);
            roundtrip(&AnalysisConfig {
                lookahead: lookahead.clone(),
                queues_per_interval: 3,
            });
        }
    }

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new(3);
        b.message("A", 0, 2).unwrap();
        b.write_n(0, "A", 2).unwrap();
        b.read_n(2, "A", 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn program_and_topology_roundtrip() {
        roundtrip(&tiny_program());
        roundtrip(&Topology::ring(5));
        roundtrip(&Topology::mesh(3, 4));
    }

    #[test]
    fn plan_roundtrip_with_integrity_check() {
        let program = tiny_program();
        let topology = Topology::ring(3);
        let analysis = crate::Analyzer::for_topology(&topology, &AnalysisConfig::default())
            .analyze(&program)
            .expect("tiny program certifies");
        let plan = analysis.into_plan();
        let bytes = encode_to_vec(&plan);
        let back: CommPlan = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.fingerprint(), plan.fingerprint());
        assert_eq!(back.labeling(), plan.labeling());

        // Flip one payload byte anywhere: either a typed parse error or a
        // fingerprint mismatch, never a panic or a silently different plan.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            if let Ok(decoded) = decode_from_slice::<CommPlan>(&corrupt) {
                assert_eq!(
                    decoded.fingerprint(),
                    plan.fingerprint(),
                    "byte {i}: accepted plan must carry the stored fingerprint"
                );
            }
        }
    }

    #[test]
    fn stable_strings_invert() {
        for method in [LabelingMethod::Section6, LabelingMethod::ConstraintSolver] {
            assert_eq!(labeling_method_from_str(method.as_str()), Some(method));
        }
        for severity in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(severity_from_str(severity.as_str()), Some(severity));
        }
        for code in [
            DiagnosticCode::CellCountMismatch,
            DiagnosticCode::RouteFailure,
            DiagnosticCode::ModelInvalid,
            DiagnosticCode::Deadlock,
            DiagnosticCode::LabelConflict,
            DiagnosticCode::InconsistentLabeling,
            DiagnosticCode::Infeasible,
            DiagnosticCode::Section6Fallback,
            DiagnosticCode::ExtensionCandidate,
        ] {
            assert_eq!(diagnostic_code_from_str(code.as_str()), Some(code));
        }
        assert_eq!(labeling_method_from_str("futuristic"), None);
        assert_eq!(severity_from_str("fatal"), None);
        assert_eq!(diagnostic_code_from_str("E-FUTURE"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// splitmix64: expands one generated seed into a deterministic byte /
    /// value stream (the vendored proptest shim has no collection
    /// strategies, so variable-length inputs are derived from a seed).
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn label_from(state: &mut u64) -> Label {
        let num = 1 + (mix(state) % 1_000) as i64;
        let den = 1 + (mix(state) % 1_000) as i64;
        Label::ratio(num, den)
    }

    fn labeling_from(len: usize, state: &mut u64) -> Labeling {
        Labeling::from_labels((0..len).map(|_| label_from(state)).collect())
    }

    proptest! {
        #[test]
        fn label_roundtrips(parts in (1i64..=1_000_000, 1i64..=1_000_000)) {
            let (num, den) = parts;
            let label = Label::ratio(num, den);
            let back: Label = decode_from_slice(&encode_to_vec(&label)).unwrap();
            prop_assert_eq!(back, label);
        }

        #[test]
        fn labeling_roundtrips(parts in (0usize..16, any::<u64>())) {
            let (len, seed) = parts;
            let mut state = seed;
            let labeling = labeling_from(len, &mut state);
            let back: Labeling = decode_from_slice(&encode_to_vec(&labeling)).unwrap();
            prop_assert_eq!(back, labeling);
        }

        #[test]
        fn diagnostic_roundtrips(
            parts in (0usize..9, 0usize..3, 0usize..8, any::<u64>())
        ) {
            let (code_idx, severity_idx, ids, seed) = parts;
            let mut state = seed;
            let severity = Severity::ALL[severity_idx];
            let diagnostic = Diagnostic::new(
                DiagnosticCode::ALL[code_idx],
                format!("generated diagnostic {:#x}", mix(&mut state)),
            )
            .with_severity(severity)
            .with_messages((0..ids).map(|_| MessageId::new((mix(&mut state) % 500) as u32)))
            .with_cells((0..ids).map(|_| CellId::new((mix(&mut state) % 500) as u32)));
            let back: Diagnostic = decode_from_slice(&encode_to_vec(&diagnostic)).unwrap();
            prop_assert_eq!(back, diagnostic);
        }

        #[test]
        fn core_error_roundtrips(parts in (0usize..5, any::<u64>())) {
            let (variant, seed) = parts;
            let mut state = seed;
            let error = match variant {
                0 => CoreError::Model(ModelError::UnknownCell {
                    name: format!("cell-{}", mix(&mut state) % 1_000),
                }),
                1 => CoreError::ProgramDeadlocked {
                    crossed_words: (mix(&mut state) % 10_000) as usize,
                    remaining_ops: (mix(&mut state) % 10_000) as usize,
                },
                2 => CoreError::LabelConflict {
                    message: MessageId::new((mix(&mut state) % 500) as u32),
                    lower_bound: label_from(&mut state),
                    upper_bound: label_from(&mut state),
                },
                3 => CoreError::InconsistentLabeling {
                    violations: 1 + (mix(&mut state) % 1_000) as usize,
                },
                _ => {
                    let from = (mix(&mut state) % 500) as u32;
                    let delta = 1 + (mix(&mut state) % 500) as u32;
                    CoreError::Infeasible {
                        hop: Hop::new(CellId::new(from), CellId::new(from + delta)),
                        required: (mix(&mut state) % 64) as usize,
                        available: (mix(&mut state) % 64) as usize,
                    }
                }
            };
            let back: CoreError = decode_from_slice(&encode_to_vec(&error)).unwrap();
            prop_assert_eq!(back, error);
        }

        #[test]
        fn arbitrary_bytes_never_panic(parts in (0usize..256, any::<u64>())) {
            let (len, seed) = parts;
            // Decoding hostile bytes must produce Ok or a typed error —
            // assertions inside domain constructors must be unreachable.
            let mut state = seed;
            let bytes: Vec<u8> = (0..len).map(|_| (mix(&mut state) & 0xff) as u8).collect();
            let _ = decode_from_slice::<Label>(&bytes);
            let _ = decode_from_slice::<Labeling>(&bytes);
            let _ = decode_from_slice::<Route>(&bytes);
            let _ = decode_from_slice::<Diagnostic>(&bytes);
            let _ = decode_from_slice::<CoreError>(&bytes);
            let _ = decode_from_slice::<AnalysisConfig>(&bytes);
            let _ = decode_from_slice::<CommPlan>(&bytes);
        }
    }
}
