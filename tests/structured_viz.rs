//! Grid-type coverage (§4.1: Rocketeer handles "non-uniform,
//! structured, unstructured, and multiblock" grids): structured and
//! multiblock data flow through GODIVA and the full visualization
//! pipeline exactly like the unstructured GENx meshes.

use godiva::core::{DeclaredSize, FieldKind, Gbo, Key, UnitSession};
use godiva::mesh::{CurvilinearBlock3D, MultiBlock3D};
use godiva::viz::{surface, Camera, ColorMap, Framebuffer};

#[test]
fn curvilinear_block_renders() {
    let block = CurvilinearBlock3D::graded(5, 5, 5, [1.0, 1.0, 1.0], 2.5);
    let mesh = block.to_tet_mesh();
    let field = block.sample_node_field(|p| p[0] + p[1] + p[2]);
    let soup = surface(&mesh, &field).unwrap();
    assert!(soup.tri_count() > 0);
    let mut fb = Framebuffer::new(96, 96);
    let camera = Camera::framing([0.0; 3], [1.0; 3]);
    let cmap = ColorMap::fit(&field, Default::default());
    let drawn = godiva::viz::raster::rasterize(&mut fb, &camera, &cmap, &soup);
    assert!(drawn > 0);
    assert!(fb.covered_pixels() > 100);
}

#[test]
fn multiblock_through_godiva_database() {
    // Store a two-block structured domain in GODIVA (one record per
    // block, keyed by block id), then query it back and composite a
    // render — the whole multiblock flow.
    let mb = MultiBlock3D::two_box_example(0.5, [1.0, 1.0, 1.0], 4);
    let db = Gbo::new(64);

    let mb2 = mb.clone();
    db.add_unit("domain", move |s: &UnitSession| {
        s.define_field("block", FieldKind::I64, DeclaredSize::Known(8))?;
        s.define_field("points", FieldKind::F64, DeclaredSize::Unknown)?;
        s.define_field("conn", FieldKind::I32, DeclaredSize::Unknown)?;
        s.define_field("temp", FieldKind::F64, DeclaredSize::Unknown)?;
        s.define_record("sblock", 1)?;
        s.insert_field("sblock", "block", true)?;
        s.insert_field("sblock", "points", false)?;
        s.insert_field("sblock", "conn", false)?;
        s.insert_field("sblock", "temp", false)?;
        s.commit_record_type("sblock")?;
        for (b, cb) in mb2.blocks.iter().enumerate() {
            let mesh = cb.to_tet_mesh();
            let rec = s.new_record("sblock")?;
            rec.set_i64("block", vec![b as i64])?;
            rec.set_f64(
                "points",
                mesh.points.iter().flat_map(|p| p.iter().copied()).collect(),
            )?;
            rec.set_i32(
                "conn",
                mesh.tets
                    .iter()
                    .flat_map(|t| t.iter().map(|&n| n as i32))
                    .collect(),
            )?;
            rec.set_f64("temp", cb.sample_node_field(|p| 300.0 + 100.0 * p[0]))?;
            rec.commit()?;
        }
        Ok(())
    })
    .unwrap();

    let guard = db.wait_unit_guard("domain").unwrap();
    let mut fb = Framebuffer::new(96, 96);
    let camera = Camera::framing([0.0; 3], [1.0; 3]);
    let cmap = ColorMap::new(300.0, 400.0, Default::default());
    for b in 0..mb.blocks.len() {
        let keys = [Key::from(b as i64)];
        let points = db.get_field_buffer("sblock", "points", &keys).unwrap();
        let conn = db.get_field_buffer("sblock", "conn", &keys).unwrap();
        let temp = db.get_field_buffer("sblock", "temp", &keys).unwrap();
        let mesh = godiva::mesh::TetMesh {
            points: points
                .f64s()
                .unwrap()
                .chunks_exact(3)
                .map(|c| [c[0], c[1], c[2]])
                .collect(),
            tets: conn
                .i32s()
                .unwrap()
                .chunks_exact(4)
                .map(|t| [t[0] as u32, t[1] as u32, t[2] as u32, t[3] as u32])
                .collect(),
        };
        mesh.validate().unwrap();
        let soup = surface(&mesh, temp.f64s().unwrap()).unwrap();
        godiva::viz::raster::rasterize(&mut fb, &camera, &cmap, &soup);
    }
    guard.finish();
    assert!(fb.covered_pixels() > 100, "both blocks rendered");
    assert_eq!(db.record_count(), 2);
}

#[test]
fn structured_2d_block_as_godiva_record_round_trips() {
    // The paper's own Table 1 object: a structured 2-D block stored and
    // queried through the database.
    use godiva::mesh::StructuredBlock2D;
    let block = StructuredBlock2D::uniform(20, 10, 2.0, 1.0);
    let db = Gbo::new(16);
    db.define_field("id", FieldKind::Str, DeclaredSize::Unknown)
        .unwrap();
    db.define_field("x coordinates", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_field("y coordinates", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("block2d", 1).unwrap();
    db.insert_field("block2d", "id", true).unwrap();
    db.insert_field("block2d", "x coordinates", false).unwrap();
    db.insert_field("block2d", "y coordinates", false).unwrap();
    db.commit_record_type("block2d").unwrap();
    let rec = db.new_record("block2d").unwrap();
    rec.set_str("id", "b0").unwrap();
    rec.set_f64("x coordinates", block.x.clone()).unwrap();
    rec.set_f64("y coordinates", block.y.clone()).unwrap();
    rec.commit().unwrap();

    let x = db
        .get_field_buffer("block2d", "x coordinates", &[Key::from("b0")])
        .unwrap();
    let restored = StructuredBlock2D {
        nx: 20,
        ny: 10,
        x: x.f64s().unwrap().to_vec(),
        y: db
            .get_field_buffer("block2d", "y coordinates", &[Key::from("b0")])
            .unwrap()
            .f64s()
            .unwrap()
            .to_vec(),
    };
    restored.validate().unwrap();
    assert_eq!(restored, block);
}
