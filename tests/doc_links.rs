//! Documentation link checker: every relative Markdown link in
//! `README.md` and `docs/*.md` must resolve to an existing file, and every
//! `crates/<path>.rs:<line>` code reference there must be named,
//! `` `name` — `crates/<path>.rs:<line>` ``, and point inside a real file
//! at a line that still holds `name`.  CI runs this test
//! explicitly so broken references fail the build, not just a reader.

use std::fs;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = fs::read_dir(&docs)
        .expect("docs/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no markdown files under docs/");
    files.extend(entries);
    files
}

/// Extracts `(link text, target)` pairs of inline Markdown links.
fn markdown_links(text: &str) -> Vec<(String, String)> {
    let mut links = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            if let Some(close) = text[i..].find("](").map(|p| i + p) {
                let label = &text[i + 1..close];
                let rest = &text[close + 2..];
                if let Some(end) = rest.find(')') {
                    let target = &rest[..end];
                    // Labels spanning a newline are not links (e.g. a
                    // stray bracket in prose).
                    if !label.contains('\n') && !target.contains('\n') {
                        links.push((label.to_string(), target.to_string()));
                    }
                    i = close + 2 + end;
                    continue;
                }
            }
        }
        i += 1;
    }
    links
}

#[test]
fn relative_markdown_links_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in doc_files() {
        let text = fs::read_to_string(&doc).expect("doc readable");
        let base = doc.parent().expect("doc has a parent directory");
        for (label, target) in markdown_links(&text) {
            // External links and intra-page anchors are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            let resolved = base.join(path_part);
            if !resolved.exists() {
                broken.push(format!(
                    "{}: [{}]({}) -> {} does not exist",
                    doc.strip_prefix(&root).unwrap_or(&doc).display(),
                    label,
                    target,
                    resolved.display()
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
}

/// Characters that end a code reference token.
fn ends_token(c: char) -> bool {
    c.is_whitespace() || "`|()[]".contains(c)
}

/// `(name, path, line, token)` of every code reference
/// `crates/<path>:<line>` in `text`, with the name of a named reference
/// `` `name` — `crates/<path>:<line>` `` (either side of the dash may break
/// the line) and `None` for an unnamed one.
fn code_references(text: &str) -> Vec<(Option<&str>, &str, usize, &str)> {
    let mut references = Vec::new();
    for (start, _) in text.match_indices("crates/") {
        if text[..start]
            .chars()
            .next_back()
            .is_some_and(|c| !ends_token(c))
        {
            continue;
        }
        let token = text[start..].split(ends_token).next().unwrap_or_default();
        let Some((path, line)) = token["crates/".len()..].rsplit_once(':') else {
            continue;
        };
        // Keep the leading digit run so trailing punctuation ("…rs:127." at
        // a sentence end) cannot hide a stale line number from the check.
        let digits: String = line.chars().take_while(char::is_ascii_digit).collect();
        let Ok(line) = digits.parse() else {
            continue;
        };
        let name = text[..start]
            .strip_suffix('`')
            .and_then(|before| before.trim_end().strip_suffix('—'))
            .and_then(|before| before.trim_end().strip_suffix('`'))
            .and_then(|before| before.rfind('`').map(|open| &before[open + 1..]))
            .filter(|name| !name.contains('\n'));
        references.push((name, path, line, token));
    }
    references
}

#[test]
fn code_line_references_point_into_real_files() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in doc_files() {
        let text = fs::read_to_string(&doc).expect("doc readable");
        let doc_name = doc.strip_prefix(&root).unwrap_or(&doc).display();
        for (name, path, line, token) in code_references(&text) {
            let Ok(source) = fs::read_to_string(root.join("crates").join(path)) else {
                broken.push(format!("{doc_name}: {token} — file missing"));
                continue;
            };
            let count = source.lines().count();
            if line == 0 || line > count {
                broken.push(format!(
                    "{doc_name}: {token} — line out of range (file has {count} lines)"
                ));
                continue;
            }
            // A reference must name its item, and still point at it: the
            // last identifier of the name (`for_message` of
            // `TokenBucket::for_message`) appears on the cited line.
            let Some(name) = name else {
                broken.push(format!(
                    "{doc_name}: {token} — unnamed; write `name` — `crates/{path}:{line}`"
                ));
                continue;
            };
            let ident = name
                .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .find(|part| !part.is_empty())
                .unwrap_or(name);
            if !source
                .lines()
                .nth(line - 1)
                .is_some_and(|held| held.contains(ident))
            {
                broken.push(format!(
                    "{doc_name}: `{name}` — crates/{path}:{line} does not hold `{ident}`"
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale code references:\n{}",
        broken.join("\n")
    );
}

#[test]
fn docs_named_by_the_readme_docs_table_exist() {
    // The README's documentation list must cover every file in docs/ and
    // vice versa, so new documents get linked and removed ones unlinked.
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README readable");
    for doc in fs::read_dir(root.join("docs")).expect("docs/") {
        let doc = doc.expect("entry").path();
        if doc.extension().is_some_and(|e| e == "md") {
            let name = format!("docs/{}", doc.file_name().unwrap().to_string_lossy());
            assert!(
                readme.contains(&name),
                "README.md does not link {name}; add it to the documentation list"
            );
        }
    }
}
