//! Paper-formatted table printing and JSON result persistence.

use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

/// Write an experiment's result JSON under `results/`.
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let s = serde_json::to_string_pretty(value).expect("serializable");
    f.write_all(s.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

/// Render a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["size", "gbps"],
            &[
                vec!["64".into(), "7.3".into()],
                vec!["1024".into(), "26.9".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("26.9"));
        // All rows have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn json_roundtrips_to_disk() {
        let dir = std::env::temp_dir().join("raw-bench-test");
        write_json(&dir, "t", &vec![1, 2, 3]).unwrap();
        let s = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let v: Vec<i32> = serde_json::from_str(&s).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
