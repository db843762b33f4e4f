//! The `sss-lint` command-line interface.
//!
//! ```text
//! sss-lint --workspace [--root DIR] [--format text|json]
//! sss-lint [--context CRATE] [--format text|json] FILE...
//! sss-lint --list-rules
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use sss_lint::rules::{lint_source, FileContext, RULES};
use sss_lint::{lint_workspace, render_json, render_text};

struct Options {
    workspace: bool,
    root: PathBuf,
    format: Format,
    context: Option<String>,
    list_rules: bool,
    files: Vec<PathBuf>,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        root: PathBuf::from("."),
        format: Format::Text,
        context: None,
        list_rules: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?} (use text or json)")),
                }
            }
            "--context" => opts.context = Some(value("--context")?),
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: sss-lint --workspace [--root DIR] [--format text|json] | \
                            sss-lint [--context CRATE] FILE... | sss-lint --list-rules"
                        .to_string(),
                )
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => opts.files.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && !opts.list_rules && opts.files.is_empty() {
        return Err("nothing to lint: pass --workspace, file paths, or --list-rules".to_string());
    }
    if opts.workspace && !opts.files.is_empty() {
        return Err("--workspace and explicit file paths are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    if opts.list_rules {
        for rule in RULES {
            println!("{}  {}", rule.code, rule.summary);
        }
        return Ok(true);
    }

    let findings = if opts.workspace {
        lint_workspace(&opts.root)?
    } else {
        let mut findings = Vec::new();
        for path in &opts.files {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path.to_string_lossy().replace('\\', "/");
            let ctx = match &opts.context {
                Some(name) => FileContext::for_crate(name),
                None => FileContext::for_path(&rel),
            };
            findings.extend(lint_source(&rel, &text, &ctx));
        }
        findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        findings
    };

    match opts.format {
        Format::Text => print!("{}", render_text(&findings)),
        Format::Json => print!("{}", render_json(&findings)),
    }
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("sss-lint: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sss-lint: {message}");
            ExitCode::from(2)
        }
    }
}
