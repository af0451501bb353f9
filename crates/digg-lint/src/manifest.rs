//! Manifest parsing: crate names and dependency edges from
//! `Cargo.toml`, and the kernel/shell partition from
//! `lint-boundary.toml`.
//!
//! Both parsers cover exactly the TOML subset this workspace uses —
//! `[section]` headers, `key = "string"`, `key = [ …string array… ]`
//! (possibly multi-line, with `#` comments), and dotted dependency
//! keys like `digg-core.workspace = true`. The linter stays
//! dependency-free, and a malformed file is a typed error, never a
//! panic.

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// One crate's manifest, reduced to what the boundary analysis needs.
#[derive(Debug, Clone, Default)]
pub struct CrateManifest {
    /// `[package] name`, empty for a virtual workspace manifest.
    pub name: String,
    /// `[dependencies]` entries as `(dep_name, 1-based line)`.
    /// Dev- and build-dependencies are excluded: they never ship in
    /// the kernel, so a kernel crate may use a shell crate in tests.
    pub deps: Vec<(String, usize)>,
}

/// Strip a trailing `#` comment (quote-aware: `#` inside a quoted
/// string does not start a comment).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `[section]` or `[section.sub]` header → the section path.
fn section_header(line: &str) -> Option<&str> {
    let t = line.trim();
    let inner = t.strip_prefix('[')?.strip_suffix(']')?;
    Some(inner.trim_matches('[').trim_matches(']'))
}

/// Unquote a TOML key (`"digg-core"` or bare `digg-core`), taking the
/// first dotted segment (`serde.workspace` → `serde`).
fn key_name(raw: &str) -> String {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        if let Some(end) = rest.find('"') {
            return rest[..end].to_string();
        }
    }
    raw.split('.').next().unwrap_or(raw).trim().to_string()
}

/// Parse a `Cargo.toml`: package name plus `[dependencies]` edges.
pub fn parse_cargo_toml(text: &str) -> Result<CrateManifest, ManifestError> {
    let mut out = CrateManifest::default();
    let mut section = String::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(sec) = section_header(line) {
            section = sec.to_string();
            // `[dependencies.foo]` declares a dependency by itself.
            if let Some(dep) = section.strip_prefix("dependencies.") {
                out.deps.push((key_name(dep), idx + 1));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match section.as_str() {
            "package" if key.trim() == "name" => {
                out.name = key_name(value);
            }
            "dependencies" => {
                out.deps.push((key_name(key), idx + 1));
            }
            _ => {}
        }
    }
    Ok(out)
}

/// The parsed `lint-boundary.toml`: the kernel/shell crate partition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundaryFile {
    /// `[crates] kernel`: crates where determinism rules are strict.
    pub kernel: Vec<String>,
    /// `[crates] shell`: harness/driver crates — async and truncating
    /// casts are legal; artifact-order rules still apply.
    pub shell: Vec<String>,
}

/// Extract the quoted strings of a TOML array body fragment.
fn quoted_strings(fragment: &str, out: &mut Vec<String>) {
    let mut rest = fragment;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else {
            return;
        };
        out.push(after[..end].to_string());
        rest = &after[end + 1..];
    }
}

/// Parse `lint-boundary.toml`. Unknown sections or keys are an error:
/// a typo'd partition key must not silently leave a crate unassigned.
pub fn parse_boundary(text: &str) -> Result<BoundaryFile, ManifestError> {
    let mut out = BoundaryFile::default();
    let mut section = String::new();
    // (section, key) the multi-line array currently being filled.
    let mut open_array: Option<(String, String)> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim().to_string();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some((sec, key)) = open_array.clone() {
            let mut vals = Vec::new();
            quoted_strings(&line, &mut vals);
            push_values(&mut out, &sec, &key, vals, lineno)?;
            if line.contains(']') {
                open_array = None;
            }
            continue;
        }
        if let Some(sec) = section_header(&line) {
            if sec != "crates" {
                return Err(ManifestError {
                    line: lineno,
                    msg: format!("unknown section [{sec}]"),
                });
            }
            section = sec.to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ManifestError {
                line: lineno,
                msg: format!("expected `key = [..]`, got `{line}`"),
            });
        };
        let key = key.trim().to_string();
        let value = value.trim();
        if !value.starts_with('[') {
            return Err(ManifestError {
                line: lineno,
                msg: format!("`{key}` must be a string array"),
            });
        }
        let mut vals = Vec::new();
        quoted_strings(value, &mut vals);
        push_values(&mut out, &section, &key, vals, lineno)?;
        if !value.contains(']') {
            open_array = Some((section.clone(), key));
        }
    }
    if let Some((sec, key)) = open_array {
        return Err(ManifestError {
            line: text.lines().count(),
            msg: format!("unterminated array {sec}.{key}"),
        });
    }
    Ok(out)
}

fn push_values(
    out: &mut BoundaryFile,
    section: &str,
    key: &str,
    mut vals: Vec<String>,
    lineno: usize,
) -> Result<(), ManifestError> {
    let target = match (section, key) {
        ("crates", "kernel") => &mut out.kernel,
        ("crates", "shell") => &mut out.shell,
        _ => {
            return Err(ManifestError {
                line: lineno,
                msg: format!("unknown key `{key}` in section [{section}]"),
            })
        }
    };
    target.append(&mut vals);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cargo_toml_name_and_deps() {
        let m = parse_cargo_toml(
            "[package]\nname = \"digg-sim\"\nversion = \"0.1.0\"\n\n[dependencies]\ndes-core = { path = \"../des-core\" }\nserde.workspace = true # comment\n\n[dev-dependencies]\nproptest = { path = \"../../vendor/proptest\" }\n",
        )
        .unwrap();
        assert_eq!(m.name, "digg-sim");
        let names: Vec<&str> = m.deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["des-core", "serde"]);
        assert_eq!(m.deps[0].1, 6);
    }

    #[test]
    fn dotted_dependency_section() {
        let m = parse_cargo_toml(
            "[package]\nname = \"x\"\n[dependencies.digg-core]\npath = \"../core\"\n",
        )
        .unwrap();
        assert_eq!(m.deps, vec![("digg-core".to_string(), 3)]);
    }

    #[test]
    fn workspace_manifest_has_no_name() {
        let m = parse_cargo_toml("[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
        assert!(m.name.is_empty());
        assert!(m.deps.is_empty());
    }

    #[test]
    fn boundary_roundtrip() {
        let b = parse_boundary(
            "# header comment\n[crates]\nkernel = [\n  \"des-core\", \"digg-sim\", # trailing\n]\nshell = [\"digg-bench\"]\n",
        )
        .unwrap();
        assert_eq!(b.kernel, vec!["des-core", "digg-sim"]);
        assert_eq!(b.shell, vec!["digg-bench"]);
    }

    #[test]
    fn boundary_rejects_unknown_keys() {
        assert!(parse_boundary("[crates]\nkrenel = [\"x\"]\n").is_err());
        assert!(parse_boundary("[boundary]\n").is_err());
        // The retired file-level allowlists are unknown now, not ignored.
        assert!(parse_boundary("[allow]\nwallclock = []\n").is_err());
        assert!(parse_boundary("[crates]\nshell = \"not-an-array\"\n").is_err());
        assert!(parse_boundary("[crates]\nkernel = [\n\"unterminated\",\n").is_err());
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let b = parse_boundary("[crates]\nshell = [\"a#b\"]\n").unwrap();
        assert_eq!(b.shell, vec!["a#b"]);
    }
}
