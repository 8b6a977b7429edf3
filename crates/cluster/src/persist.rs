//! Prototype persistence: a small self-describing text format.
//!
//! The offline phase runs once per dataset; its output — the prototype set —
//! is what the online phase loads. To keep the dependency set minimal we use
//! a line-oriented text format instead of pulling in a serialisation crate:
//!
//! ```text
//! focus-prototypes v1
//! k <k> p <p> objective <rec|reccorr> alpha <alpha>
//! <p floats of prototype 0, space-separated>
//! …
//! <p floats of prototype k-1>
//! ```

use crate::engine::Prototypes;
use crate::objective::Objective;
use focus_tensor::Tensor;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "focus-prototypes v1";

/// Errors from [`Prototypes::load`] / parsing.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid prototype dump (with a reason).
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl Prototypes {
    /// Serialises the prototype set to the text format.
    pub fn to_text(&self) -> String {
        let (k, p) = (self.k(), self.segment_len());
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        match self.objective() {
            Objective::RecOnly => {
                let _ = writeln!(out, "k {k} p {p} objective rec alpha 0");
            }
            Objective::RecCorr { alpha } => {
                let _ = writeln!(out, "k {k} p {p} objective reccorr alpha {alpha}");
            }
        }
        for j in 0..k {
            let row = self.centers().row(j);
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a prototype set from the text format.
    ///
    /// Every `PersistError::Format` message carries the 1-based line number
    /// it refers to (magic = line 1, header = line 2, prototype row `j` =
    /// line `3 + j`). Non-finite values (NaN, ±inf) are rejected: they would
    /// poison every distance computed against the loaded centers. `k` and
    /// `p` must be positive, and nothing is allocated from them before the
    /// rows that back them have been read.
    pub fn from_text(text: &str) -> Result<Prototypes, PersistError> {
        let mut lines = text.lines();
        let magic = lines
            .next()
            .ok_or_else(|| PersistError::Format("line 1: empty file, expected magic".into()))?;
        if magic.trim() != MAGIC {
            return Err(PersistError::Format(format!("line 1: bad magic line: {magic:?}")));
        }
        let header = lines
            .next()
            .ok_or_else(|| PersistError::Format("line 2: missing header".into()))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() != 8 || fields[0] != "k" || fields[2] != "p" || fields[4] != "objective" || fields[6] != "alpha" {
            return Err(PersistError::Format(format!("line 2: bad header: {header:?}")));
        }
        let k: usize = fields[1]
            .parse()
            .map_err(|_| PersistError::Format(format!("line 2: bad k: {}", fields[1])))?;
        let p: usize = fields[3]
            .parse()
            .map_err(|_| PersistError::Format(format!("line 2: bad p: {}", fields[3])))?;
        if k == 0 || p == 0 {
            return Err(PersistError::Format(format!(
                "line 2: k and p must be positive, got k {k} p {p}"
            )));
        }
        if k.checked_mul(p).is_none() {
            return Err(PersistError::Format(format!(
                "line 2: k·p overflows for k {k} p {p}"
            )));
        }
        let alpha: f32 = fields[7]
            .parse()
            .map_err(|_| PersistError::Format(format!("line 2: bad alpha: {}", fields[7])))?;
        if !alpha.is_finite() {
            return Err(PersistError::Format(format!("line 2: non-finite alpha: {}", fields[7])));
        }
        let objective = match fields[5] {
            "rec" => Objective::RecOnly,
            "reccorr" => Objective::RecCorr { alpha },
            other => return Err(PersistError::Format(format!("line 2: unknown objective: {other}"))),
        };
        let mut data = Vec::new();
        for j in 0..k {
            let lineno = 3 + j;
            let line = lines.next().ok_or_else(|| {
                PersistError::Format(format!("line {lineno}: missing prototype row {j}"))
            })?;
            let values: Result<Vec<f32>, _> = line.split_whitespace().map(str::parse).collect();
            let values = values
                .map_err(|_| PersistError::Format(format!("line {lineno}: bad float in row {j}")))?;
            if values.len() != p {
                return Err(PersistError::Format(format!(
                    "line {lineno}: row {j} has {} values, expected {p}",
                    values.len()
                )));
            }
            if let Some(pos) = values.iter().position(|v| !v.is_finite()) {
                return Err(PersistError::Format(format!(
                    "line {lineno}: non-finite value {} at column {} of row {j}",
                    values[pos],
                    pos + 1
                )));
            }
            data.extend_from_slice(&values);
        }
        Ok(Prototypes::from_centers(Tensor::from_vec(data, &[k, p]), objective))
    }

    /// Writes the prototype set to `path`.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Reads a prototype set from `path`.
    pub fn load(path: &Path) -> Result<Prototypes, PersistError> {
        let text = std::fs::read_to_string(path)?;
        Prototypes::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Prototypes {
        Prototypes::from_centers(
            Tensor::from_vec(vec![1.0, -2.5, 0.125, 3.0, 0.0, -1.0], &[2, 3]),
            Objective::rec_corr(0.2),
        )
    }

    #[test]
    fn text_round_trip_is_exact() {
        let p = sample();
        let text = p.to_text();
        let q = Prototypes::from_text(&text).expect("serialised prototype text parses back");
        assert_eq!(p.centers().data(), q.centers().data());
        assert_eq!(p.objective(), q.objective());
    }

    #[test]
    fn file_round_trip() {
        let p = sample();
        let dir = std::env::temp_dir().join("focus-cluster-test");
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        let path = dir.join("protos.txt");
        p.save(&path).expect("prototypes save to a writable temp file");
        let q = Prototypes::load(&path).expect("just-saved prototype file loads");
        assert_eq!(p.centers().data(), q.centers().data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(Prototypes::from_text("").is_err());
        assert!(Prototypes::from_text("wrong magic\n").is_err());
        let p = sample();
        let mut text = p.to_text();
        text.push_str("trailing garbage is fine actually\n");
        // Trailing lines are ignored; truncation is not.
        assert!(Prototypes::from_text(&text).is_ok());
        let truncated: String = p.to_text().lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(Prototypes::from_text(&truncated).is_err());
    }

    fn format_message(r: Result<Prototypes, PersistError>) -> String {
        match r {
            Err(PersistError::Format(msg)) => msg,
            Err(other) => panic!("expected Format error, got {other}"),
            Ok(_) => panic!("expected Format error, got Ok"),
        }
    }

    #[test]
    fn rejects_non_finite_values_with_position() {
        let text = "focus-prototypes v1\nk 2 p 3 objective reccorr alpha 0.2\n1 2 3\n4 NaN 6\n";
        let msg = format_message(Prototypes::from_text(text));
        assert!(msg.contains("line 4"), "message lacks line number: {msg}");
        assert!(msg.contains("non-finite"), "message lacks cause: {msg}");
        assert!(msg.contains("column 2"), "message lacks column: {msg}");
        let inf = "focus-prototypes v1\nk 1 p 2 objective rec alpha 0\ninf 0\n";
        let msg = format_message(Prototypes::from_text(inf));
        assert!(msg.contains("line 3") && msg.contains("non-finite"), "{msg}");
        let neg = "focus-prototypes v1\nk 1 p 2 objective rec alpha 0\n0 -inf\n";
        assert!(format_message(Prototypes::from_text(neg)).contains("non-finite"));
    }

    #[test]
    fn rejects_non_finite_alpha() {
        let text = "focus-prototypes v1\nk 1 p 1 objective reccorr alpha NaN\n0\n";
        let msg = format_message(Prototypes::from_text(text));
        assert!(msg.contains("line 2") && msg.contains("non-finite alpha"), "{msg}");
    }

    #[test]
    fn every_format_error_names_its_line() {
        let cases: [(&str, &str); 6] = [
            ("", "line 1"),
            ("wrong magic\n", "line 1"),
            ("focus-prototypes v1\n", "line 2"),
            ("focus-prototypes v1\nk x p 3 objective rec alpha 0\n", "line 2"),
            ("focus-prototypes v1\nk 2 p 2 objective rec alpha 0\n1 2\n", "line 4"),
            ("focus-prototypes v1\nk 1 p 2 objective rec alpha 0\n1 oops\n", "line 3"),
        ];
        for (text, expect) in cases {
            let msg = format_message(Prototypes::from_text(text));
            assert!(msg.contains(expect), "{text:?}: expected {expect} in {msg:?}");
        }
    }

    #[test]
    fn header_counts_are_checked_before_use() {
        // A huge k used to size a 3.2 TB allocation up front (process abort);
        // k·p used to overflow; zero k or p used to parse as an empty set.
        let cases = [
            ("k 100000000000 p 8 objective rec alpha 0", "line 3"),
            ("k 18446744073709551615 p 2 objective rec alpha 0", "overflows"),
            ("k 4294967296 p 4294967296 objective rec alpha 0", "overflows"),
            ("k 0 p 8 objective rec alpha 0", "positive"),
            ("k 2 p 0 objective rec alpha 0", "positive"),
        ];
        for (header, expect) in cases {
            let text = format!("focus-prototypes v1\n{header}\n");
            let msg = format_message(Prototypes::from_text(&text));
            assert!(msg.contains(expect), "{header:?}: expected {expect:?} in {msg:?}");
        }
    }

    #[test]
    fn rec_only_round_trip() {
        let p = Prototypes::from_centers(Tensor::zeros(&[1, 2]), Objective::RecOnly);
        let q = Prototypes::from_text(&p.to_text()).expect("serialised prototype text parses back");
        assert_eq!(q.objective(), Objective::RecOnly);
    }
}
