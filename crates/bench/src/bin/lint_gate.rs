//! CI lint gate: every benchmark app's default wiring must be deny-clean.
//!
//! Compiles the five apps with default [`WiringOpts`] and runs the full
//! linter — including the analytic capacity rules BP013–BP015, which are fed
//! each app's paper traffic mix and a documented operating rate (chosen well
//! under the model's pessimistic knee for the default 8x8-core cluster, so a
//! capacity regression in an app or in the model itself trips the gate).
//! Prints each app's findings in JSON (the stable `render_json` format), a
//! machine-readable `rule-counts` line per app, and writes the summary to
//! `results/ci_lint.txt`. Exits nonzero if any app carries a deny-severity
//! diagnostic — warn-level findings are reported but do not fail the gate,
//! with one exception: the overload-scaffolding rules BP010
//! (missing-deadline-propagation) and BP011 (unbudgeted-retry-fanout) and
//! the capacity rules BP013–BP015 are escalated to gate failures here,
//! because the default wirings ship no deadline policies, `Retry(max=0)`,
//! and documented headroom, so any firing means a default wiring regressed
//! into a hazard this gate exists to prevent.
//!
//! `lint_gate --explain BP0xx` prints the rule's full documentation (hazard,
//! bound semantics, canonical fix) and exits.

use std::fmt::Write as _;
use std::process::ExitCode;

use blueprint_apps::{
    hotel_reservation, media, social_network, sock_shop, train_ticket, WiringOpts,
};
use blueprint_bench::report;
use blueprint_core::Blueprint;
use blueprint_lint::{deny_count, render_json, render_text, Diagnostic, LintConfig, Linter};
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;

/// Warn-level rules escalated to gate failures on default wirings.
const ESCALATED: &[&str] = &["BP010", "BP011", "BP013", "BP014", "BP015"];

/// One gated app: workflow, default wiring, paper mix, and the documented
/// operating rate the capacity rules are checked at. Rates sit near half
/// the model's pessimistic knee for the default cluster (8 machines x 8
/// cores, tracing on), leaving real headroom before BP013's 0.8-utilization
/// warn knee while still being high enough that a large capacity regression
/// fires the gate.
struct GatedApp {
    name: &'static str,
    workflow: WorkflowSpec,
    wiring: WiringSpec,
    mix: Vec<(&'static str, &'static str, f64)>,
    target_rps: f64,
}

fn lint_app(app: &GatedApp) -> Vec<Diagnostic> {
    let compiled = Blueprint::new()
        .without_artifacts()
        .without_simulation()
        .compile(&app.workflow, &app.wiring)
        .unwrap_or_else(|e| panic!("{} fails to compile: {e}", app.name));
    let mut cfg = LintConfig::default().with_target_rps(app.target_rps);
    for (entry, method, w) in &app.mix {
        cfg = cfg.with_mix(entry, method, *w);
    }
    Linter::new(cfg).run_with_workflow(compiled.ir(), &app.wiring, Some(&app.workflow))
}

/// Prints the full documentation of one rule (`--explain BP0xx`).
fn explain(id: &str) -> ExitCode {
    let linter = Linter::new(LintConfig::default());
    match linter.rules().iter().find(|r| r.id == id || r.name == id) {
        Some(r) => {
            println!("{} ({}) — default severity: {:?}", r.id, r.name, r.severity);
            println!("\n{}\n\n{}", r.summary, r.doc);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{id}`; known rules:");
            for r in linter.rules() {
                eprintln!("  {} ({}) — {}", r.id, r.name, r.summary);
            }
            ExitCode::FAILURE
        }
    }
}

/// One machine-readable per-rule count line: every known rule, zero or not,
/// in id order — parseable as `rule-counts <app> BP0xx=<n> ...`.
fn rule_counts_line(name: &str, diags: &[Diagnostic]) -> String {
    let linter = Linter::new(LintConfig::default());
    let mut line = format!("rule-counts {name}");
    for r in linter.rules() {
        let n = diags.iter().filter(|d| d.rule == r.id).count();
        let _ = write!(line, " {}={n}", r.id);
    }
    line
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--explain") {
        let Some(id) = args.get(i + 1) else {
            eprintln!("usage: lint_gate --explain BP0xx");
            return ExitCode::FAILURE;
        };
        return explain(id);
    }

    let opts = WiringOpts::default();
    let apps = [
        GatedApp {
            name: "hotel_reservation",
            workflow: hotel_reservation::workflow(),
            wiring: hotel_reservation::wiring(&opts),
            mix: vec![
                ("frontend", "SearchHotels", 0.60),
                ("frontend", "Recommend", 0.38),
                ("frontend", "Login", 0.01),
                ("frontend", "Reserve", 0.01),
            ],
            target_rps: 10_000.0,
        },
        GatedApp {
            name: "social_network",
            workflow: social_network::workflow(),
            wiring: social_network::wiring(&opts),
            mix: vec![
                ("gateway", "ReadHomeTimeline", 0.6),
                ("gateway", "ReadUserTimeline", 0.3),
                ("gateway", "ComposePost", 0.1),
            ],
            target_rps: 5_000.0,
        },
        GatedApp {
            name: "media",
            workflow: media::workflow(),
            wiring: media::wiring(&opts),
            mix: vec![
                ("gateway", "ReadMovieReviews", 0.45),
                ("gateway", "ReadMovieInfo", 0.35),
                ("gateway", "ReadUserReviews", 0.10),
                ("gateway", "ComposeReview", 0.10),
            ],
            target_rps: 10_000.0,
        },
        GatedApp {
            name: "sock_shop",
            workflow: sock_shop::workflow(),
            wiring: sock_shop::wiring(&opts),
            mix: vec![
                ("frontend", "Browse", 0.70),
                ("frontend", "AddToCart", 0.15),
                ("frontend", "Login", 0.10),
                ("frontend", "Checkout", 0.05),
            ],
            target_rps: 15_000.0,
        },
        GatedApp {
            name: "train_ticket",
            workflow: train_ticket::workflow(),
            wiring: train_ticket::wiring(&opts),
            mix: vec![
                ("ts_ui_gateway", "QueryTicket", 0.50),
                ("ts_ui_gateway", "Preserve", 0.20),
                ("ts_ui_gateway", "QueryOrder", 0.15),
                ("ts_ui_gateway", "Login", 0.10),
                ("ts_ui_gateway", "Cancel", 0.05),
            ],
            target_rps: 4_000.0,
        },
    ];

    let results: Vec<(&GatedApp, Vec<Diagnostic>)> =
        apps.iter().map(|a| (a, lint_app(a))).collect();

    let mut summary = String::from(
        "CI lint gate — default wirings, deny-clean required\n\
         capacity rules (BP013-BP015) run at each app's documented operating rate\n\n",
    );
    let _ = writeln!(
        summary,
        "{:<20} {:>10} {:>6} {:>6} {:>6}",
        "app", "rate rps", "total", "warn", "deny"
    );
    let mut failed = false;
    for (app, diags) in &results {
        let denies = deny_count(diags);
        let warns = diags.len() - denies;
        let _ = writeln!(
            summary,
            "{:<20} {:>10.0} {:>6} {warns:>6} {denies:>6}",
            app.name,
            app.target_rps,
            diags.len()
        );
        if denies > 0 {
            failed = true;
        }
        // Escalated warn rules: overload scaffolding and capacity headroom
        // must be absent-or-complete on every default wiring.
        for d in diags.iter() {
            if ESCALATED.contains(&d.rule.as_str()) {
                let _ = writeln!(summary, "  escalated {}: {}", d.rule, d.message);
                failed = true;
            }
        }
    }
    for (app, diags) in &results {
        let _ = writeln!(summary, "{}", rule_counts_line(app.name, diags));
    }

    println!("{summary}");
    for (app, diags) in &results {
        println!("== {} ==", app.name);
        print!("{}", render_json(diags));
        if !diags.is_empty() {
            print!("{}", render_text(diags));
        }
    }

    report::save("results/ci_lint.txt", &summary);

    if failed {
        eprintln!("lint gate FAILED: deny-severity diagnostics on a default wiring");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
