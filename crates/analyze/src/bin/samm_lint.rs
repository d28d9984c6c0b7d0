//! `samm-lint` — policy-axiom and litmus-file linter.
//!
//! ```text
//! samm-lint [--policy NAME] [--models] [--catalog] [--deny-warnings]
//!           [--jobs N] [PATH...]
//! ```
//!
//! * `PATH...` — `.litmus` files or directories to scan (recursively);
//!   each file must parse, compile, and pass the program lints
//!   (`dead-fence`, `redundant-fence-static`) under the selected policy.
//! * `--policy NAME` — policy for the program lints: `sc`, `tso`,
//!   `naive-tso`, `pso`, `weak` (default `weak`).
//! * `--models` — lint every built-in policy table against the paper's
//!   axioms plus the `SC ⊒ TSO ⊒ PSO ⊒ Weak` containment chain.
//! * `--catalog` — lint every built-in catalog entry's program.
//! * `--deny-warnings` — exit non-zero on warnings too (CI mode).
//! * `--jobs N` — lint `.litmus` files with N worker threads (default:
//!   the `SAMM_JOBS` environment variable, else the core count).
//!   Diagnostics stay in stable file order regardless of N.
//!
//! Exit status: 0 clean, 1 diagnostics (errors always; warnings only
//! with `--deny-warnings`), 2 usage or I/O failure.

#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samm_analyze::lint::{lint_builtin_models, lint_litmus, Diagnostic, Severity};
use samm_core::policy::Policy;
use samm_litmus::{catalog, parse};

struct Options {
    policy: Policy,
    models: bool,
    catalog: bool,
    deny_warnings: bool,
    jobs: usize,
    paths: Vec<PathBuf>,
}

/// The default worker count: the `SAMM_JOBS` environment variable when it
/// parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`]. `SAMM_JOBS` lets CI pin core
/// usage without touching every invocation.
fn default_parallelism() -> usize {
    std::env::var("SAMM_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn usage() -> &'static str {
    "usage: samm-lint [--policy NAME] [--models] [--catalog] [--deny-warnings] [--jobs N] [PATH...]\n\
     policies: sc, tso, naive-tso, pso, weak (default weak)"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        policy: Policy::weak(),
        models: false,
        catalog: false,
        deny_warnings: false,
        jobs: default_parallelism(),
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => {
                let name = it.next().ok_or("--policy needs a value")?;
                opts.policy = match name.as_str() {
                    "sc" => Policy::sequential_consistency(),
                    "tso" => Policy::tso(),
                    "naive-tso" => Policy::naive_tso(),
                    "pso" => Policy::pso(),
                    "weak" => Policy::weak(),
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--models" => opts.models = true,
            "--catalog" => opts.catalog = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "--jobs needs a positive integer".to_owned())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.models && !opts.catalog && opts.paths.is_empty() {
        return Err("nothing to lint: pass --models, --catalog, or at least one PATH".into());
    }
    Ok(opts)
}

/// Collects `.litmus` files under `path` (recursing into directories),
/// sorted for stable output.
fn collect_litmus_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            collect_litmus_files(&entry, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "litmus") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn lint_file(path: &Path, policy: &Policy) -> Result<Vec<Diagnostic>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let test = parse(&text).map_err(|e| format!("{}: parse error: {e}", path.display()))?;
    let compiled = test
        .compile()
        .map_err(|e| format!("{}: compile error: {e}", path.display()))?;
    Ok(lint_litmus(&compiled, policy))
}

fn run(opts: &Options) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    if opts.models {
        diags.extend(lint_builtin_models());
    }
    if opts.catalog {
        for entry in catalog::all() {
            diags.extend(lint_litmus(&entry.test, &opts.policy));
        }
    }
    let mut files = Vec::new();
    for path in &opts.paths {
        if !path.exists() {
            return Err(format!("{}: no such file or directory", path.display()));
        }
        collect_litmus_files(path, &mut files).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for result in lint_files_parallel(&files, &opts.policy, opts.jobs) {
        match result {
            Ok(file_diags) => diags.extend(file_diags),
            Err(msg) => return Err(msg),
        }
    }
    Ok(diags)
}

/// Lints `files` with up to `jobs` worker threads, preserving file
/// order in the returned results. Each worker claims the next unlinted
/// index atomically, so the split balances regardless of file sizes.
fn lint_files_parallel(
    files: &[PathBuf],
    policy: &Policy,
    jobs: usize,
) -> Vec<Result<Vec<Diagnostic>, String>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    type FileResult = Result<Vec<Diagnostic>, String>;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<FileResult>>> =
        Mutex::new((0..files.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1).min(files.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else { break };
                let result = lint_file(file, policy).map(|file_diags| {
                    file_diags
                        .into_iter()
                        .map(|d| Diagnostic {
                            message: format!("{}: {}", file.display(), d.message),
                            ..d
                        })
                        .collect()
                });
                results.lock().expect("lint results poisoned")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("lint results poisoned")
        .into_iter()
        .map(|r| r.expect("every index claimed"))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("samm-lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let diags = match run(&opts) {
        Ok(diags) => diags,
        Err(msg) => {
            eprintln!("samm-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    for d in &diags {
        println!("{d}");
    }
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        eprintln!("samm-lint: {errors} error(s), {warnings} warning(s)");
        ExitCode::FAILURE
    } else {
        if !diags.is_empty() {
            eprintln!("samm-lint: {warnings} warning(s)");
        }
        ExitCode::SUCCESS
    }
}
