//! `doc-paths`: every repo path the docs cite must exist.
//!
//! README, `docs/*.md` and the skill notes send readers to concrete
//! files — a test that pins a claim, the module behind a figure. When a
//! file moves or a crate is deleted those citations rot silently. This
//! pass reads every inline code span (fenced blocks are skipped) in
//! [`doc_files`] and checks each whitespace-separated token that starts
//! with one of the top-level [`ROOTS`] against the tree. Shell-style
//! braces expand (`crates/{sph,nbody}/tests/golden.rs` cites two
//! files), a `:line` suffix is dropped, a glob segment checks only the
//! directory in front of it, and no waiver applies: fix the doc.

use crate::Diagnostic;
use std::path::Path;

const LINT: &str = "doc-paths";

/// First path segments that mark a token as repo-relative.
pub const ROOTS: &[&str] =
    &["crates", "shims", "src", "tests", "examples", "docs", "e2ebench", ".github", ".claude"];

/// The docs under the check, relative to `root`: `README.md`,
/// `docs/*.md` and every `.md` under `.claude/skills/`.
pub fn doc_files(root: &Path) -> Vec<String> {
    let mut out = vec!["README.md".to_string()];
    let mut stack = vec![(root.join("docs"), false), (root.join(".claude/skills"), true)];
    while let Some((dir, recurse)) = stack.pop() {
        for p in std::fs::read_dir(&dir).into_iter().flatten().flatten().map(|e| e.path()) {
            if p.is_dir() && recurse {
                stack.push((p, true));
            } else if p.is_file() && p.extension().is_some_and(|e| e == "md") {
                out.push(p.strip_prefix(root).unwrap_or(&p).to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// Check the doc `text` (cited as `doc`) against the tree at `root`.
pub fn check(root: &Path, doc: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (line, token) in code_tokens(text) {
        let token = token.trim_start_matches('(').trim_end_matches(['.', ',', ';', ')']);
        let path = token.split(':').next().unwrap_or(token);
        if !path.split_once('/').is_some_and(|(first, _)| ROOTS.contains(&first)) {
            continue;
        }
        for cited in expand_braces(path) {
            let literal: Vec<&str> = cited.split('/').take_while(|s| !s.contains('*')).collect();
            if !root.join(literal.join("/")).exists() {
                diags.push(Diagnostic {
                    path: doc.to_string(),
                    line,
                    lint: LINT,
                    message: format!("`{cited}` does not exist — fix or drop the citation"),
                });
            }
        }
    }
    diags
}

/// Whitespace-separated tokens of every inline code span, with the
/// 1-based line each token sits on. A span may wrap across lines but
/// not across a blank line (an unclosed backtick is literal text);
/// fenced blocks are skipped whole.
fn code_tokens(text: &str) -> Vec<(u32, &str)> {
    let mut out = Vec::new();
    let mut span: Option<Vec<(u32, &str)>> = None;
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        let fence = trimmed.starts_with("```");
        in_fence ^= fence;
        if fence || in_fence || trimmed.is_empty() {
            span = None;
            continue;
        }
        for (k, piece) in line.split('`').enumerate() {
            if k > 0 {
                // A backtick closes the open span (keeping its tokens)
                // or opens a new one.
                span = match span.take() {
                    Some(closed) => {
                        out.extend(closed);
                        None
                    }
                    None => Some(Vec::new()),
                };
            }
            if let Some(open) = span.as_mut() {
                open.extend(piece.split_whitespace().map(|t| (idx as u32 + 1, t)));
            }
        }
    }
    out
}

/// Shell-style brace expansion: `a/{b,c}/d` → `a/b/d`, `a/c/d`.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
            .collect(),
        _ => vec![path.to_string()],
    }
}
