//! File-format independence — the design point §3 stresses:
//!
//! *"Because reading the input files and interpreting their contents are
//! done through developer-provided functions, this approach imposes no
//! requirements on file formats whatsoever. If visualization tool
//! developers decide to use GODIVA, they do not have to change how input
//! files are written, and can switch to another input file format just
//! by supplying a different read function."*
//!
//! This example stores the *same* time-series in three formats — SDF
//! (the HDF-like container), plain binary arrays, and a homegrown ASCII
//! format — and processes all three through one GODIVA database with
//! three different read functions. The processing code never changes.
//!
//! Run with: `cargo run --example custom_format`

use godiva::core::{DeclaredSize, FieldKind, Gbo, GodivaError, Key, UnitSession};
use godiva::platform::{MemFs, Storage};
use godiva::sdf::{plain, SdfWriter};
use std::sync::Arc;

const N: usize = 64;

fn series(step: usize) -> Vec<f64> {
    (0..N)
        .map(|i| (i as f64 * 0.1 + step as f64).sin())
        .collect()
}

/// Shared schema: one record per (format, step), keyed by unit name.
fn define_schema(s: &UnitSession) -> Result<(), GodivaError> {
    s.define_field("unit", FieldKind::Str, DeclaredSize::Unknown)?;
    s.define_field("signal", FieldKind::F64, DeclaredSize::Unknown)?;
    s.define_record("series", 1)?;
    s.insert_field("series", "unit", true)?;
    s.insert_field("series", "signal", false)?;
    s.commit_record_type("series")
}

fn store(s: &UnitSession, signal: Vec<f64>) -> Result<(), GodivaError> {
    define_schema(s)?;
    let rec = s.new_record("series")?;
    rec.set_str("unit", s.unit())?;
    rec.set_f64("signal", signal)?;
    rec.commit()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = Arc::new(MemFs::new());

    // --- write the same data in three different formats -----------------
    let mut w = SdfWriter::create(fs.as_ref(), "data/step0.sdf");
    w.put_1d("signal", &series(0), vec![])?;
    w.finish()?;

    plain::write_array(fs.as_ref(), "data/step1.bin", &series(1))?;

    let ascii: String = series(2).iter().map(|v| format!("{v}\n")).collect();
    fs.write("data/step2.txt", ascii.as_bytes())?;

    // --- one database, three read functions -----------------------------
    let db = Gbo::new(64);

    let fs_sdf = Arc::clone(&fs);
    db.add_unit("data/step0.sdf", move |s: &UnitSession| {
        let file = godiva::sdf::SdfFile::open(fs_sdf.clone() as Arc<dyn Storage>, s.unit())
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        let signal: Vec<f64> = file
            .read("signal")
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        store(s, signal)
    })?;

    let fs_bin = Arc::clone(&fs);
    db.add_unit("data/step1.bin", move |s: &UnitSession| {
        let signal: Vec<f64> = plain::read_array(fs_bin.as_ref(), s.unit())
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        store(s, signal)
    })?;

    let fs_txt = Arc::clone(&fs);
    db.add_unit("data/step2.txt", move |s: &UnitSession| {
        let text = fs_txt
            .read(s.unit())
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        let signal: Vec<f64> = String::from_utf8(text)
            .map_err(|e| GodivaError::UnitError(e.to_string()))?
            .lines()
            .map(|l| l.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        store(s, signal)
    })?;

    // --- format-agnostic processing code ---------------------------------
    for (step, unit) in ["data/step0.sdf", "data/step1.bin", "data/step2.txt"]
        .iter()
        .enumerate()
    {
        db.wait_unit(unit)?;
        let buf = db.get_field_buffer("series", "signal", &[Key::from(*unit)])?;
        let values = buf.f64s()?;
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let expect = series(step);
        assert_eq!(values, expect.as_slice(), "data identical across formats");
        println!(
            "{unit:<18} {} samples, mean {mean:+.4}  (read via its own read function)",
            values.len()
        );
        db.delete_unit(unit)?;
    }
    println!("\nsame processing code consumed SDF, plain binary and ASCII inputs.");
    Ok(())
}
