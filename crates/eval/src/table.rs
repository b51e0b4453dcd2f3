//! Result-table formatting matching the layout of the paper's tables
//! (model rows; MSE/MAE/MAPE columns for validation and test splits).

use crate::metrics::ErrorMetrics;

/// One row of an accuracy table (Tables 1–4, 6, 11).
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Model name; consistent models are marked `*` like in the paper.
    pub model: String,
    /// Whether the model guarantees consistency.
    pub consistent: bool,
    /// Metrics on the validation split.
    pub valid: ErrorMetrics,
    /// Metrics on the test split.
    pub test: ErrorMetrics,
}

/// Renders an accuracy table. `mse_scale` / `mae_scale` divide the raw
/// values, mirroring the paper's `×10^5` / `×10^2` column headers.
pub fn render_accuracy_table(
    title: &str,
    rows: &[AccuracyRow],
    mse_scale: f64,
    mae_scale: f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8}\n",
        "Model",
        format!("MSE/{mse_scale:.0e}(V)"),
        format!("MSE/{mse_scale:.0e}(T)"),
        format!("MAE/{mae_scale:.0e}(V)"),
        format!("MAE/{mae_scale:.0e}(T)"),
        "MAPE(V)",
        "MAPE(T)",
    ));
    for r in rows {
        let name = if r.consistent {
            format!("{} *", r.model)
        } else {
            r.model.clone()
        };
        out.push_str(&format!(
            "{:<16} {:>12.2} {:>12.2} {:>10.2} {:>10.2} {:>8.2} {:>8.2}\n",
            name,
            r.valid.mse / mse_scale,
            r.test.mse / mse_scale,
            r.valid.mae / mae_scale,
            r.test.mae / mae_scale,
            r.valid.mape,
            r.test.mape,
        ));
    }
    out
}

/// The `(mse_scale, mae_scale)` a table of `rows` reads best under: the
/// power of ten at or below the **median** row's test MSE and MAE (at
/// least 1). One model orders of magnitude worse than the rest then prints
/// a large cell of its own; scaled by the largest row instead, every other
/// row prints `0.00`.
pub fn median_scales(rows: &[AccuracyRow]) -> (f64, f64) {
    let scale = |metric: fn(&ErrorMetrics) -> f64| {
        let mut values: Vec<f64> = rows.iter().map(|r| metric(&r.test)).collect();
        values.sort_by(f64::total_cmp);
        let median = values.get(values.len() / 2).map_or(1.0, |v| v.max(1.0));
        10f64.powi(median.log10() as i32)
    };
    (scale(|m| m.mse), scale(|m| m.mae))
}

/// Writes rows as CSV (for `results/*.csv` artifacts).
pub fn accuracy_csv(rows: &[AccuracyRow]) -> String {
    let mut out = String::from(
        "model,consistent,mse_valid,mse_test,mae_valid,mae_test,mape_valid,mape_test\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.model,
            r.consistent,
            r.valid.mse,
            r.test.mse,
            r.valid.mae,
            r.test.mae,
            r.valid.mape,
            r.test.mape
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> AccuracyRow {
        AccuracyRow {
            model: "SelNet".into(),
            consistent: true,
            valid: ErrorMetrics {
                mse: 4.95e5,
                mae: 2.95e2,
                mape: 0.63,
                count: 10,
            },
            test: ErrorMetrics {
                mse: 5.08e5,
                mae: 2.96e2,
                mape: 0.61,
                count: 10,
            },
        }
    }

    #[test]
    fn table_contains_scaled_values() {
        let s = render_accuracy_table("fasttext-cos", &[row()], 1e5, 1e2);
        assert!(s.contains("SelNet *"));
        assert!(s.contains("4.95"));
        assert!(s.contains("0.61"));
    }

    /// Eight models around MSE 3·10⁴ and one at 10¹¹ (`repro_accuracy`'s
    /// DNN row): scaled by the worst, eight of nine MSE cells read `0.00`.
    #[test]
    fn scales_come_from_the_median_row_not_the_worst() {
        let mut rows: Vec<AccuracyRow> = (0..8)
            .map(|i| {
                let mut r = row();
                r.test.mse = 3.1e4 + 1e3 * i as f64;
                r.test.mae = 41.0 + i as f64;
                r
            })
            .collect();
        let mut outlier = row();
        outlier.test.mse = 1.2e11;
        outlier.test.mae = 2.4e5;
        rows.insert(3, outlier);
        assert_eq!(median_scales(&rows), (1e4, 1e1));
        let (mse_scale, mae_scale) = median_scales(&rows);
        let table = render_accuracy_table("t", &rows, mse_scale, mae_scale);
        assert!(table.contains("3.10") && table.contains("3.80"), "{table}");
        assert!(table.contains("12000000.00"), "{table}");
        // nothing to scale by, and values under one, leave the columns raw
        assert_eq!(median_scales(&[]), (1.0, 1.0));
        rows.iter_mut().for_each(|r| r.test.mse = 0.02);
        assert_eq!(median_scales(&rows).0, 1.0);
    }

    #[test]
    fn csv_has_header_and_row() {
        let s = accuracy_csv(&[row()]);
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("model,consistent"));
        assert!(s.lines().nth(1).expect("row").starts_with("SelNet,true"));
    }
}
