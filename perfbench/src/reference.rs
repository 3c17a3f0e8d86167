//! Reference outputs recorded from the parent commit on the default
//! seed (`0xC0FFEE`) at full size: every cell's mean KS as `f64` bits,
//! and the growth scenario's fold-cache counts. A run on the default
//! seed must reproduce them bit for bit; on other seeds the passes must
//! agree with each other and with the traced replay.

use crate::batch::CellOut;
use crate::{Ctx, Report, Workload, DEFAULT_SEED};

/// `(workload, cell label, mean KS bits)`.
#[rustfmt::skip]
const CELL_MEANS: &[(&str, &str, u64)] = &[
    ("paper_grid", "uc1 Histogram+kNN s=10 seed=0xc0ffee", 0x3fc809d495182a98),
    ("paper_grid", "uc1 Histogram+RandomForest s=10 seed=0xc0ffee", 0x3fc798c7e28240b9),
    ("paper_grid", "uc1 Histogram+XGBoost s=10 seed=0xc0ffee", 0x3fc6c710cb295e9e),
    ("paper_grid", "uc1 PyMaxEnt+kNN s=10 seed=0xc0ffee", 0x3fccc985f06f6945),
    ("paper_grid", "uc1 PyMaxEnt+RandomForest s=10 seed=0xc0ffee", 0x3fcd460aa64c2f83),
    ("paper_grid", "uc1 PyMaxEnt+XGBoost s=10 seed=0xc0ffee", 0x3fca353f7ced9168),
    ("paper_grid", "uc1 PearsonRnd+kNN s=10 seed=0xc0ffee", 0x3fc73d07c84b5dcc),
    ("paper_grid", "uc1 PearsonRnd+RandomForest s=10 seed=0xc0ffee", 0x3fc8083126e978d5),
    ("paper_grid", "uc1 PearsonRnd+XGBoost s=10 seed=0xc0ffee", 0x3fca978d4fdf3b63),
    ("paper_grid", "uc2 Histogram+kNN s=100 seed=0xc0ffee", 0x3fc81a36e2eb1c42),
    ("paper_grid", "uc2 PyMaxEnt+kNN s=100 seed=0xc0ffee", 0x3fcb0068db8bac70),
    ("paper_grid", "uc2 PearsonRnd+kNN s=100 seed=0xc0ffee", 0x3fc767a0f9096bba),
    ("knn_append", "uc1 Histogram+kNN s=1 seed=0xc0ffee", 0x3fcb76eba8129187),
    ("knn_append", "uc1 PyMaxEnt+kNN s=1 seed=0xc0ffee", 0x3fca147ae147ae14),
    ("knn_append", "uc1 PearsonRnd+kNN s=1 seed=0xc0ffee", 0x3fc843b874df5e5a),
    ("knn_append", "uc1 Histogram+kNN s=2 seed=0xc0ffee", 0x3fcba4cbb52e02fe),
    ("knn_append", "uc1 PyMaxEnt+kNN s=2 seed=0xc0ffee", 0x3fc7f3705def57cb),
    ("knn_append", "uc1 PearsonRnd+kNN s=2 seed=0xc0ffee", 0x3fc78a94d242e6be),
    ("knn_append", "uc1 Histogram+kNN s=5 seed=0xc0ffee", 0x3fca5119ce075f71),
    ("knn_append", "uc1 PyMaxEnt+kNN s=5 seed=0xc0ffee", 0x3fc9182a9930be0e),
    ("knn_append", "uc1 PearsonRnd+kNN s=5 seed=0xc0ffee", 0x3fc58ead65b7a326),
    ("knn_append", "uc1 Histogram+kNN s=10 seed=0xc0ffee", 0x3fca9073c7bf8e67),
    ("knn_append", "uc1 PyMaxEnt+kNN s=10 seed=0xc0ffee", 0x3fc97ca7a9b5ffb9),
    ("knn_append", "uc1 PearsonRnd+kNN s=10 seed=0xc0ffee", 0x3fc6ce2a53490b9d),
    ("knn_append", "uc1 Histogram+kNN s=25 seed=0xc0ffee", 0x3fc9fc733bf02981),
    ("knn_append", "uc1 PyMaxEnt+kNN s=25 seed=0xc0ffee", 0x3fc7788f1641434f),
    ("knn_append", "uc1 PearsonRnd+kNN s=25 seed=0xc0ffee", 0x3fc5073c7bf8e677),
    ("knn_append", "uc1 Histogram+kNN s=50 seed=0xc0ffee", 0x3fc9d14e3bcd35a9),
    ("knn_append", "uc1 PyMaxEnt+kNN s=50 seed=0xc0ffee", 0x3fc968fe7f85aa87),
    ("knn_append", "uc1 PearsonRnd+kNN s=50 seed=0xc0ffee", 0x3fc5e83e425aee62),
    ("knn_append", "uc1 Histogram+kNN s=1 seed=0xc2c86bfc65c5f114", 0x3fcb46508dfea27a),
    ("knn_append", "uc1 PyMaxEnt+kNN s=1 seed=0xc2c86bfc65c5f114", 0x3fc9facfcdc177bc),
    ("knn_append", "uc1 PearsonRnd+kNN s=1 seed=0xc2c86bfc65c5f114", 0x3fc8189374bc6a81),
    ("knn_append", "uc1 Histogram+kNN s=2 seed=0xc2c86bfc65c5f114", 0x3fcb65fd8adab9f3),
    ("knn_append", "uc1 PyMaxEnt+kNN s=2 seed=0xc2c86bfc65c5f114", 0x3fc7dadce932ed4b),
    ("knn_append", "uc1 PearsonRnd+kNN s=2 seed=0xc2c86bfc65c5f114", 0x3fc7705def57ca7c),
    ("knn_append", "uc1 Histogram+kNN s=5 seed=0xc2c86bfc65c5f114", 0x3fca1735ee402bb2),
    ("knn_append", "uc1 PyMaxEnt+kNN s=5 seed=0xc2c86bfc65c5f114", 0x3fc8ed916872b022),
    ("knn_append", "uc1 PearsonRnd+kNN s=5 seed=0xc2c86bfc65c5f114", 0x3fc5712fa66f235c),
    ("knn_append", "uc1 Histogram+kNN s=10 seed=0xc2c86bfc65c5f114", 0x3fca846ff513cc1e),
    ("knn_append", "uc1 PyMaxEnt+kNN s=10 seed=0xc2c86bfc65c5f114", 0x3fc92801179ec9cb),
    ("knn_append", "uc1 PearsonRnd+kNN s=10 seed=0xc2c86bfc65c5f114", 0x3fc6af94f536bff6),
    ("knn_append", "uc1 Histogram+kNN s=25 seed=0xc2c86bfc65c5f114", 0x3fc9c54a6921735f),
    ("knn_append", "uc1 PyMaxEnt+kNN s=25 seed=0xc2c86bfc65c5f114", 0x3fc70ac94008bcf7),
    ("knn_append", "uc1 PearsonRnd+kNN s=25 seed=0xc2c86bfc65c5f114", 0x3fc4f64e5ec10ee1),
    ("knn_append", "uc1 Histogram+kNN s=50 seed=0xc2c86bfc65c5f114", 0x3fc99b3d07c84b5f),
    ("knn_append", "uc1 PyMaxEnt+kNN s=50 seed=0xc2c86bfc65c5f114", 0x3fc912b47f3fc2d7),
    ("knn_append", "uc1 PearsonRnd+kNN s=50 seed=0xc2c86bfc65c5f114", 0x3fc59a2568fe7f85),
    ("scale_sharded", "uc1 PearsonRnd+kNN s=10 seed=0xc0ffee", 0x3fc71e3a7daa4fc9),
];

/// `knn_append` phase 2: (delta-verified, recomputed) folds.
const APPEND_COUNTS: (usize, usize) = (1008, 1152);

/// Compares a pass against the recorded references (default seed and
/// full size only). On a mismatch it prints the measured values in this
/// file's format, so a deliberate change of numerics can re-record them.
pub fn check(
    w: Workload,
    ctx: &Ctx,
    cells: &[CellOut],
    counts: (usize, usize),
    report: &mut Report,
) {
    if ctx.seed != DEFAULT_SEED || ctx.sizes.runs != crate::batch::Sizes::full().runs {
        return;
    }
    let expected: Vec<(&str, u64)> = CELL_MEANS
        .iter()
        .filter(|(wl, _, _)| *wl == w.name())
        .map(|&(_, label, bits)| (label, bits))
        .collect();
    let got: Vec<(&str, u64)> = cells
        .iter()
        .map(|c| (c.label.as_str(), c.mean_bits))
        .collect();
    if expected != got {
        for (label, bits) in &got {
            report.note(format!(
                "    (\"{}\", \"{label}\", 0x{bits:016x}),",
                w.name()
            ));
        }
    }
    report.check(
        expected == got,
        format!(
            "{}: cell KS means differ from the recorded reference",
            w.name()
        ),
    );
    if w == Workload::KnnAppend {
        report.check(
            counts == APPEND_COUNTS,
            format!(
                "knn_append: fold counts {counts:?} differ from the recorded {APPEND_COUNTS:?}"
            ),
        );
    }
}
