//! Field types and record types — the GODIVA "schema".
//!
//! §3.1 of the paper: *"tool developers can first define certain field
//! types and record types, and then repeatedly create records with
//! predefined record types."* A field type has a name, a data type and a
//! pre-declared buffer size (or `UNKNOWN`); a record type is a named set
//! of field types, some of which are *key* fields; `commitRecordType`
//! freezes the definition.
//!
//! Because the paper's read functions re-declare their types on every
//! invocation (one call per unit), all definition calls here are
//! **idempotent**: re-issuing an identical definition succeeds,
//! re-issuing a conflicting one is a [`GodivaError::SchemaConflict`].

use crate::error::{GodivaError, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Element type of a field buffer.
///
/// The paper's examples use `STRING` and `DOUBLE`; connectivity data
/// needs integers. `Str` is stored as bytes (like a C string buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Text, stored as bytes; the paper's `STRING`.
    Str,
    /// 64-bit float; the paper's `DOUBLE`.
    F64,
    /// 32-bit float.
    F32,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Raw bytes.
    Bytes,
}

impl FieldKind {
    /// Element size in bytes (1 for `Str`/`Bytes`).
    pub const fn elem_size(self) -> usize {
        match self {
            FieldKind::Str | FieldKind::Bytes => 1,
            FieldKind::F32 | FieldKind::I32 => 4,
            FieldKind::F64 | FieldKind::I64 => 8,
        }
    }
}

/// Declared buffer size of a field type: known bytes or `UNKNOWN`.
///
/// The paper: *"If the data buffer size is not known when the field type
/// is defined, it can be given the value UNKNOWN"* — common for raw array
/// data whose extent is only discovered when the file is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclaredSize {
    /// Buffer size known up front; `new_record` pre-allocates it.
    Known(u64),
    /// Size discovered at read time; allocate with `alloc_field`/`set_*`.
    Unknown,
}

/// A defined field type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldTypeDef {
    /// Field type name (unique among field types).
    pub name: String,
    /// Element type.
    pub kind: FieldKind,
    /// Declared buffer size in bytes.
    pub size: DeclaredSize,
}

/// One field's membership in a record type, with the field type's
/// definition resolved into it (a field definition never changes once
/// made), so record operations validate against the slot alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSlot {
    /// The field type name.
    pub field: String,
    /// Whether this field participates in the record key.
    pub is_key: bool,
    /// The field type's element type.
    pub kind: FieldKind,
    /// The field type's declared buffer size.
    pub size: DeclaredSize,
}

/// A record type: a named set of field slots plus key metadata.
#[derive(Debug, Clone)]
pub struct RecordTypeDef {
    /// Record type name.
    pub name: String,
    /// Number of key fields promised at `define_record` time.
    pub declared_keys: usize,
    /// Fields in insertion order.
    pub fields: Vec<FieldSlot>,
    /// Whether `commit_record_type` has frozen this definition.
    pub committed: bool,
    /// Dense number given by `commit_record_type` in commit order; the
    /// store reaches a type's key index through it.
    pub id: usize,
}

impl RecordTypeDef {
    /// Names of the key fields, in insertion order.
    pub fn key_fields(&self) -> impl Iterator<Item = &str> {
        self.fields
            .iter()
            .filter(|s| s.is_key)
            .map(|s| s.field.as_str())
    }

    /// Number of key fields currently inserted.
    pub fn key_count(&self) -> usize {
        self.fields.iter().filter(|s| s.is_key).count()
    }

    /// Position of `field` in the slot list.
    pub fn slot(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|s| s.field == field)
    }
}

/// The registry of all defined field and record types.
///
/// Record types are shared out as `Arc`s once committed (records and
/// their handles hold one), and found by name through an ordered map:
/// a lookup by `&str` compares, it neither hashes nor allocates.
#[derive(Debug, Default)]
pub struct Schema {
    fields: HashMap<String, FieldTypeDef>,
    records: BTreeMap<String, Arc<RecordTypeDef>>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// `defineField(name, type, size)`.
    pub fn define_field(&mut self, name: &str, kind: FieldKind, size: DeclaredSize) -> Result<()> {
        if name.is_empty() {
            return Err(GodivaError::SchemaConflict(
                "field name must be non-empty".into(),
            ));
        }
        let def = FieldTypeDef {
            name: name.to_string(),
            kind,
            size,
        };
        match self.fields.get(name) {
            None => {
                self.fields.insert(name.to_string(), def);
                Ok(())
            }
            Some(existing) if *existing == def => Ok(()), // idempotent redefinition
            Some(existing) => Err(GodivaError::SchemaConflict(format!(
                "field '{name}' already defined as {existing:?}, redefinition as {def:?} differs"
            ))),
        }
    }

    /// `defineRecord(name, n_key_fields)`.
    pub fn define_record(&mut self, name: &str, declared_keys: usize) -> Result<()> {
        if name.is_empty() {
            return Err(GodivaError::SchemaConflict(
                "record type name must be non-empty".into(),
            ));
        }
        match self.records.get(name) {
            None => {
                self.records.insert(
                    name.to_string(),
                    Arc::new(RecordTypeDef {
                        name: name.to_string(),
                        declared_keys,
                        fields: Vec::new(),
                        committed: false,
                        id: 0,
                    }),
                );
                Ok(())
            }
            Some(existing) if existing.committed => {
                // A read function re-running: accept the re-declaration if
                // the key count matches; fields will be re-inserted and
                // checked for identity.
                if existing.declared_keys == declared_keys {
                    Ok(())
                } else {
                    Err(GodivaError::SchemaConflict(format!(
                        "record type '{name}' committed with {} keys, redefined with {declared_keys}",
                        existing.declared_keys
                    )))
                }
            }
            Some(existing) if existing.declared_keys == declared_keys => Ok(()),
            Some(existing) => Err(GodivaError::SchemaConflict(format!(
                "record type '{name}' being defined with {} keys, redefined with {declared_keys}",
                existing.declared_keys
            ))),
        }
    }

    /// `insertField(record, field, is_key)`.
    pub fn insert_field(&mut self, record: &str, field: &str, is_key: bool) -> Result<()> {
        let def = self.field(field)?;
        let slot = FieldSlot {
            field: field.to_string(),
            is_key,
            kind: def.kind,
            size: def.size,
        };
        let rec = self
            .records
            .get_mut(record)
            .ok_or_else(|| GodivaError::UnknownType(format!("record type '{record}'")))?;
        if rec.committed {
            // Idempotent re-insertion from a re-run read function.
            return match rec.fields.iter().find(|s| s.field == field) {
                Some(existing) if *existing == slot => Ok(()),
                Some(existing) => Err(GodivaError::SchemaConflict(format!(
                    "field '{field}' in committed record type '{record}' has is_key={}, \
                     re-inserted with is_key={is_key}",
                    existing.is_key
                ))),
                None => Err(GodivaError::TypeState(format!(
                    "cannot add new field '{field}' to committed record type '{record}'"
                ))),
            };
        }
        match rec.fields.iter().find(|s| s.field == field) {
            Some(existing) if *existing == slot => Ok(()),
            Some(existing) => Err(GodivaError::SchemaConflict(format!(
                "field '{field}' already inserted into '{record}' with is_key={}",
                existing.is_key
            ))),
            None => {
                // Not committed, so nothing else holds the `Arc` yet.
                Arc::make_mut(rec).fields.push(slot);
                Ok(())
            }
        }
    }

    /// `commitRecordType(record)`: freeze the definition after checking
    /// that the number of key fields matches the declaration.
    pub fn commit_record_type(&mut self, record: &str) -> Result<()> {
        let committed = self.records.values().filter(|r| r.committed).count();
        let rec = self
            .records
            .get_mut(record)
            .ok_or_else(|| GodivaError::UnknownType(format!("record type '{record}'")))?;
        if rec.committed {
            return Ok(()); // idempotent
        }
        if rec.fields.is_empty() {
            return Err(GodivaError::TypeState(format!(
                "record type '{record}' has no fields"
            )));
        }
        let keys = rec.key_count();
        if keys != rec.declared_keys {
            return Err(GodivaError::TypeState(format!(
                "record type '{record}' declared {} key fields but {keys} were inserted",
                rec.declared_keys
            )));
        }
        let rec = Arc::make_mut(rec);
        rec.committed = true;
        rec.id = committed;
        Ok(())
    }

    /// Look up a field type.
    pub fn field(&self, name: &str) -> Result<&FieldTypeDef> {
        self.fields
            .get(name)
            .ok_or_else(|| GodivaError::UnknownType(format!("field type '{name}'")))
    }

    /// Look up a record type.
    pub fn record(&self, name: &str) -> Result<&Arc<RecordTypeDef>> {
        self.records
            .get(name)
            .ok_or_else(|| GodivaError::UnknownType(format!("record type '{name}'")))
    }

    /// Look up a committed record type (creating records requires this).
    pub fn committed_record(&self, name: &str) -> Result<&Arc<RecordTypeDef>> {
        let rec = self.record(name)?;
        if !rec.committed {
            return Err(GodivaError::TypeState(format!(
                "record type '{name}' has not been committed"
            )));
        }
        Ok(rec)
    }

    /// Names of all defined record types.
    pub fn record_type_names(&self) -> Vec<String> {
        self.records.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Table 1 "fluid" record type.
    fn fluid_schema() -> Schema {
        let mut s = Schema::new();
        s.define_field("block id", FieldKind::Str, DeclaredSize::Known(11))
            .unwrap();
        s.define_field("time-step id", FieldKind::Str, DeclaredSize::Known(9))
            .unwrap();
        for f in ["x coordinates", "y coordinates", "pressure", "temperature"] {
            s.define_field(f, FieldKind::F64, DeclaredSize::Unknown)
                .unwrap();
        }
        s.define_record("fluid", 2).unwrap();
        s.insert_field("fluid", "block id", true).unwrap();
        s.insert_field("fluid", "time-step id", true).unwrap();
        for f in ["x coordinates", "y coordinates", "pressure", "temperature"] {
            s.insert_field("fluid", f, false).unwrap();
        }
        s.commit_record_type("fluid").unwrap();
        s
    }

    #[test]
    fn table1_schema_builds() {
        let s = fluid_schema();
        let rec = s.committed_record("fluid").unwrap();
        assert_eq!(rec.fields.len(), 6);
        assert_eq!(rec.key_count(), 2);
        assert_eq!(
            rec.key_fields().collect::<Vec<_>>(),
            vec!["block id", "time-step id"]
        );
    }

    #[test]
    fn idempotent_redefinition_allowed() {
        let mut s = fluid_schema();
        // A read function re-runs and re-declares everything identically.
        s.define_field("block id", FieldKind::Str, DeclaredSize::Known(11))
            .unwrap();
        s.define_record("fluid", 2).unwrap();
        s.insert_field("fluid", "block id", true).unwrap();
        s.commit_record_type("fluid").unwrap();
    }

    #[test]
    fn conflicting_field_redefinition_rejected() {
        let mut s = fluid_schema();
        assert!(matches!(
            s.define_field("block id", FieldKind::Str, DeclaredSize::Known(12)),
            Err(GodivaError::SchemaConflict(_))
        ));
        assert!(matches!(
            s.define_field("block id", FieldKind::F64, DeclaredSize::Known(11)),
            Err(GodivaError::SchemaConflict(_))
        ));
    }

    #[test]
    fn conflicting_key_flag_rejected() {
        let mut s = fluid_schema();
        assert!(matches!(
            s.insert_field("fluid", "block id", false),
            Err(GodivaError::SchemaConflict(_))
        ));
    }

    #[test]
    fn new_field_on_committed_type_rejected() {
        let mut s = fluid_schema();
        s.define_field("extra", FieldKind::F64, DeclaredSize::Unknown)
            .unwrap();
        assert!(matches!(
            s.insert_field("fluid", "extra", false),
            Err(GodivaError::TypeState(_))
        ));
    }

    #[test]
    fn key_count_must_match_declaration() {
        let mut s = Schema::new();
        s.define_field("a", FieldKind::Str, DeclaredSize::Known(4))
            .unwrap();
        s.define_record("r", 2).unwrap();
        s.insert_field("r", "a", true).unwrap();
        assert!(matches!(
            s.commit_record_type("r"),
            Err(GodivaError::TypeState(_))
        ));
    }

    #[test]
    fn empty_record_type_rejected() {
        let mut s = Schema::new();
        s.define_record("r", 0).unwrap();
        assert!(s.commit_record_type("r").is_err());
    }

    #[test]
    fn insert_unknown_field_or_record_rejected() {
        let mut s = Schema::new();
        s.define_record("r", 0).unwrap();
        assert!(matches!(
            s.insert_field("r", "ghost", false),
            Err(GodivaError::UnknownType(_))
        ));
        s.define_field("a", FieldKind::F64, DeclaredSize::Unknown)
            .unwrap();
        assert!(matches!(
            s.insert_field("ghost", "a", false),
            Err(GodivaError::UnknownType(_))
        ));
    }

    #[test]
    fn uncommitted_record_type_unusable() {
        let mut s = Schema::new();
        s.define_field("a", FieldKind::F64, DeclaredSize::Unknown)
            .unwrap();
        s.define_record("r", 0).unwrap();
        s.insert_field("r", "a", false).unwrap();
        assert!(matches!(
            s.committed_record("r"),
            Err(GodivaError::TypeState(_))
        ));
        s.commit_record_type("r").unwrap();
        assert!(s.committed_record("r").is_ok());
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(FieldKind::Str.elem_size(), 1);
        assert_eq!(FieldKind::Bytes.elem_size(), 1);
        assert_eq!(FieldKind::F32.elem_size(), 4);
        assert_eq!(FieldKind::I32.elem_size(), 4);
        assert_eq!(FieldKind::F64.elem_size(), 8);
        assert_eq!(FieldKind::I64.elem_size(), 8);
    }

    #[test]
    fn zero_key_record_type_allowed() {
        let mut s = Schema::new();
        s.define_field("payload", FieldKind::Bytes, DeclaredSize::Unknown)
            .unwrap();
        s.define_record("singleton", 0).unwrap();
        s.insert_field("singleton", "payload", false).unwrap();
        s.commit_record_type("singleton").unwrap();
    }

    #[test]
    fn record_type_names_sorted() {
        let mut s = Schema::new();
        s.define_record("zeta", 0).unwrap();
        s.define_record("alpha", 0).unwrap();
        assert_eq!(s.record_type_names(), vec!["alpha", "zeta"]);
    }
}
