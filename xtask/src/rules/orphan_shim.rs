//! Rule `orphan-shim`: every `third_party/*` workspace member must be
//! named by some member's `[dependencies]`, `[dev-dependencies]` or
//! `[build-dependencies]`. A shim nobody depends on is dead weight that
//! still builds, still gets linted and still reads as a dependency in the
//! docs (a compression shim sat there, unlinked, for ten PRs).
//!
//! Like the other rules this is line-based: the manifests in this
//! workspace are flat `key = value` TOML, one entry per line.

use std::collections::BTreeSet;
use std::path::Path;

use crate::rules::{Finding, Rule};

/// The quoted entries of the workspace manifest's `members = [ .. ]`
/// array, with their 1-based line numbers.
fn workspace_members(manifest: &str) -> Vec<(usize, String)> {
    let mut members = Vec::new();
    let mut in_members = false;
    for (idx, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = true;
        }
        if in_members {
            members.extend(
                line.split('"')
                    .skip(1)
                    .step_by(2)
                    .map(|m| (idx + 1, m.to_string())),
            );
            in_members = !line.contains(']');
        }
    }
    members
}

/// The `name` under `[package]`.
fn package_name(manifest: &str) -> Option<String> {
    section_keys(manifest, &["package"])
        .find_map(|(key, value)| (key == "name").then(|| value.trim_matches('"').to_string()))
}

/// `(key, value)` of every `key = value` line inside the named sections;
/// a dotted key (`rand.workspace = true`) yields its first segment.
fn section_keys<'a>(
    manifest: &'a str,
    sections: &'a [&'a str],
) -> impl Iterator<Item = (&'a str, &'a str)> {
    let mut wanted = false;
    manifest.lines().filter_map(move |line| {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[') {
            wanted = sections.contains(&header.trim_end_matches(']'));
            return None;
        }
        let (key, value) = line.split_once('=')?;
        let key = key.trim().split('.').next()?.trim_matches('"');
        (wanted && !line.starts_with('#')).then_some((key, value.trim()))
    })
}

/// Checks the workspace rooted at `root` for `third_party/*` members no
/// member depends on.
pub fn check_orphan_shims(root: &Path) -> Vec<Finding> {
    let root_manifest = root.join("Cargo.toml");
    let Ok(workspace) = std::fs::read_to_string(&root_manifest) else {
        return Vec::new();
    };
    // The root manifest may be a package too (the umbrella crate).
    let mut manifests = vec![workspace.clone()];
    let mut shims = Vec::new();
    for (line, member) in workspace_members(&workspace) {
        let Ok(manifest) = std::fs::read_to_string(root.join(&member).join("Cargo.toml")) else {
            continue;
        };
        if member.starts_with("third_party/") {
            let name = package_name(&manifest).unwrap_or_else(|| member.clone());
            shims.push((line, member, name));
        }
        manifests.push(manifest);
    }
    let named: BTreeSet<&str> = manifests
        .iter()
        .flat_map(|m| {
            section_keys(
                m,
                &["dependencies", "dev-dependencies", "build-dependencies"],
            )
            .map(|(key, _)| key)
        })
        .collect();
    shims
        .into_iter()
        .filter(|(_, _, name)| !named.contains(name.as_str()))
        .map(|(line, member, name)| Finding {
            file: root_manifest.clone(),
            line,
            rule: Rule::OrphanShim,
            message: format!(
                "workspace member `{member}` (package `{name}`) is in no member's \
                 [dependencies] or [dev-dependencies]; delete the shim or depend on it"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_dependency_keys_parse() {
        let manifest = "[workspace]\nmembers = [\n    \"crates/a\", # first\n    \
                        \"third_party/b\",\n]\n[workspace.dependencies]\nb = { path = \"x\" }\n\
                        [package]\nname = \"root\"\n[dependencies]\na.workspace = true\n\
                        # c = \"1\"\n[dev-dependencies]\nd = \"1\"\n";
        assert_eq!(
            workspace_members(manifest),
            vec![
                (3, "crates/a".to_string()),
                (4, "third_party/b".to_string())
            ]
        );
        assert_eq!(package_name(manifest).as_deref(), Some("root"));
        let deps: Vec<&str> = section_keys(manifest, &["dependencies", "dev-dependencies"])
            .map(|(key, _)| key)
            .collect();
        // `[workspace.dependencies]` names a path, not a use.
        assert_eq!(deps, ["a", "d"]);
    }
}
