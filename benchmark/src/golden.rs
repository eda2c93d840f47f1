//! The certificate oracle: rendered certificates must equal the
//! committed goldens under `tests/golden/`, read at run time with the
//! chunking of the repository's golden test (blocks separated by a blank
//! line, `;` comment lines dropped).

use std::collections::HashMap;
use std::path::PathBuf;

use islaris_cases::{CaseCtx, ALL_CASES};

/// Golden certificate chunks by case slug, loaded on first use.
#[derive(Default)]
pub struct Goldens {
    by_slug: HashMap<&'static str, Vec<String>>,
}

fn golden_path(name: &str, isa: &str) -> PathBuf {
    let stem = format!("{name}_{isa}")
        .to_lowercase()
        .replace(['.', ' '], "_");
    PathBuf::from("tests/golden").join(format!("{stem}.cert"))
}

/// Drops `;` comment lines and joins the rest, the form golden chunks
/// are compared in.
fn strip_comments(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with(';'))
        .collect::<Vec<_>>()
        .join("\n")
}

fn chunks(content: &str) -> Vec<String> {
    content
        .split("\n\n")
        .map(strip_comments)
        .filter(|c| !c.trim().is_empty())
        .collect()
}

impl Goldens {
    /// Loads the golden of every registered case, building each case once
    /// to learn its name and ISA (the daemon workloads see only slugs).
    ///
    /// # Errors
    ///
    /// A missing or unreadable golden file.
    pub fn load_all() -> Result<Goldens, String> {
        let mut g = Goldens::default();
        for def in ALL_CASES {
            let art = (def.build)(&CaseCtx::default());
            g.load(def.slug, art.name, art.isa)?;
        }
        Ok(g)
    }

    /// Loads the golden of one case unless already loaded.
    ///
    /// # Errors
    ///
    /// A missing or unreadable golden file.
    pub fn load(&mut self, slug: &'static str, name: &str, isa: &str) -> Result<(), String> {
        if !self.by_slug.contains_key(slug) {
            let path = golden_path(name, isa);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            self.by_slug.insert(slug, chunks(&text));
        }
        Ok(())
    }

    /// Checks one case's rendered certificates, block by block.
    ///
    /// # Errors
    ///
    /// Describes the first block that differs from the golden.
    pub fn check(&self, slug: &str, rendered: &[&str]) -> Result<(), String> {
        let golden = self
            .by_slug
            .get(slug)
            .ok_or_else(|| format!("no golden loaded for `{slug}`"))?;
        if golden.len() != rendered.len() {
            return Err(format!(
                "`{slug}`: {} certificates, golden has {}",
                rendered.len(),
                golden.len()
            ));
        }
        for (i, (g, r)) in golden.iter().zip(rendered).enumerate() {
            if *g != strip_comments(r) {
                return Err(format!(
                    "`{slug}` block {i}: certificate differs from golden"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_drops_comments_and_blank_separators() {
        let text =
            "; block 0x0 spec a\n(certificate\n (x))\n\n; block 0x4 spec b\n(certificate\n (y))\n";
        assert_eq!(
            chunks(text),
            vec!["(certificate\n (x))", "(certificate\n (y))"]
        );
        let mut g = Goldens::default();
        g.by_slug.insert("t", chunks(text));
        assert!(g
            .check("t", &["(certificate\n (x))\n", "(certificate\n (y))\n"])
            .is_ok());
        assert!(g.check("t", &["(certificate\n (x))\n"]).is_err());
        assert!(g
            .check("t", &["(certificate\n (x))\n", "(certificate\n (z))\n"])
            .is_err());
        assert!(g.check("u", &[]).is_err());
    }

    #[test]
    fn golden_paths_follow_the_golden_test() {
        assert_eq!(
            golden_path("bin.search", "RV"),
            PathBuf::from("tests/golden/bin_search_rv.cert")
        );
        assert_eq!(
            golden_path("pKVM", "Arm"),
            PathBuf::from("tests/golden/pkvm_arm.cert")
        );
    }
}
