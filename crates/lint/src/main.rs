//! The `xsi-lint` binary. See `xsi-lint --help`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use xsi_lint::baseline::Baseline;
use xsi_lint::{render, LintConfig};

const USAGE: &str = "\
xsi-lint — project-specific static analysis for the xsi workspace (DESIGN.md §9)

USAGE:
    xsi-lint [OPTIONS]

OPTIONS:
    --root <DIR>         workspace root (default: walk up from cwd)
    --baseline <FILE>    ratchet baseline (default: <root>/lint-baseline.json)
    --deny-all           promote warn-level findings to fatal (the CI mode)
    --update-baseline    re-freeze the ratchet baseline to current counts
    --json               machine-readable report on stdout
    --sarif <FILE>       also write the report as SARIF 2.1.0 (for code scanning)
    --verbose            also render waived/baselined findings
    --explain <RULE>     print a rule's full documentation
    --list-rules         list every rule with its severity
    -h, --help           this text

EXIT CODES:
    0  no fatal findings (or --update-baseline succeeded)
    1  fatal findings
    2  usage or I/O error";

struct Opts {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    deny_all: bool,
    update_baseline: bool,
    json: bool,
    sarif: Option<PathBuf>,
    verbose: bool,
    explain: Option<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        baseline: None,
        deny_all: false,
        update_baseline: false,
        json: false,
        sarif: None,
        verbose: false,
        explain: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => opts.root = Some(PathBuf::from(need(&mut args, "--root")?)),
            "--baseline" => opts.baseline = Some(PathBuf::from(need(&mut args, "--baseline")?)),
            "--deny-all" => opts.deny_all = true,
            "--update-baseline" => opts.update_baseline = true,
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = Some(PathBuf::from(need(&mut args, "--sarif")?)),
            "--verbose" => opts.verbose = true,
            "--explain" => opts.explain = Some(need(&mut args, "--explain")?),
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xsi-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    if opts.list_rules {
        print!("{}", render::list_rules());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(rule) = &opts.explain {
        return match render::explain(rule) {
            Some(text) => {
                print!("{text}");
                Ok(ExitCode::SUCCESS)
            }
            None => Err(format!("unknown rule `{rule}` (try --list-rules)")),
        };
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            xsi_lint::find_root(&cwd).ok_or_else(|| {
                "no workspace root found (no ancestor with Cargo.toml + crates/); pass --root"
                    .to_string()
            })?
        }
    };
    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("lint-baseline.json"));
    let baseline = if baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        Some(Baseline::parse(&text)?)
    } else {
        None
    };

    let config = LintConfig {
        root: root.clone(),
        baseline,
        deny_all: opts.deny_all,
    };
    let report =
        xsi_lint::run(&config).map_err(|e| format!("walk failed under {}: {e}", root.display()))?;

    if opts.update_baseline {
        let frozen = Baseline::from_counts(report.ratchet_counts.clone());
        std::fs::write(&baseline_path, frozen.to_json())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        eprintln!(
            "xsi-lint: froze {} file entr{} into {}",
            frozen.entries().len(),
            if frozen.entries().len() == 1 {
                "y"
            } else {
                "ies"
            },
            baseline_path.display()
        );
        // Still report non-ratcheted fatal findings so --update-baseline
        // cannot paper over hash-iter/span-coverage/hygiene violations.
    }

    if opts.json {
        print!("{}", render::json(&report, opts.deny_all));
    } else {
        print!("{}", render::human(&report, opts.deny_all, opts.verbose));
    }
    if let Some(path) = &opts.sarif {
        std::fs::write(path, xsi_lint::sarif::sarif(&report))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("xsi-lint: wrote SARIF report to {}", path.display());
    }

    let fatal = if opts.update_baseline {
        // Ratcheted findings were just frozen; only non-baselineable
        // rules can still fail the run. `stale-baseline` is likewise
        // forgiven here — the write above is exactly the pruning the
        // rule demands, so failing the run that performs it would make
        // the contract unsatisfiable.
        report
            .fatal(opts.deny_all)
            .filter(|f| {
                f.rule != "stale-baseline"
                    && xsi_lint::rules::info(f.rule)
                        .map(|r| !r.baselineable)
                        .unwrap_or(true)
            })
            .count()
    } else {
        report.fatal(opts.deny_all).count()
    };
    Ok(if fatal == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
