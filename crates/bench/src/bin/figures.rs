//! Regenerates every table and figure of the SilkMoth paper's evaluation
//! (§8) as text, at a configurable scale.
//!
//! ```text
//! cargo run --release -p silkmoth-bench --bin figures -- all
//! cargo run --release -p silkmoth-bench --bin figures -- fig5 --sets 8000
//! cargo run --release -p silkmoth-bench --bin figures -- table3 fig4 fig7
//! ```
//!
//! Absolute times will differ from the paper (different hardware, synthetic
//! data, smaller default scale); the *shapes* — which configuration wins,
//! by roughly what factor, and how curves move with θ and α — are the
//! reproduction target. The full paper-vs-measured comparison these
//! figures should feed — a generated `EXPERIMENTS.md` — is not written
//! yet; ROADMAP.md item 3 specifies it.

use silkmoth_bench::{noopt_config, opt_config, Application, Workload, THETAS};
use silkmoth_core::{FilterKind, SignatureScheme};

struct Args {
    figures: Vec<String>,
    sets: Option<usize>,
}

fn parse_args() -> Args {
    let mut figures = Vec::new();
    let mut sets = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sets" => {
                sets = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sets needs a number"),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [all|table3|fig4|fig5|fig6|fig7|fig8|fig9]... [--sets N]"
                );
                std::process::exit(0);
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Args { figures, sets }
}

fn main() {
    let args = parse_args();
    let all = args.figures.iter().any(|f| f == "all");
    let want = |name: &str| all || args.figures.iter().any(|f| f == name);

    // Laptop-scale defaults chosen so `all` completes in a few minutes.
    let default_sets = args.sets.unwrap_or(4000);

    if want("table3") {
        table3(default_sets);
    }
    if want("fig4") {
        fig4(default_sets);
    }
    if want("fig5") {
        fig5(default_sets);
    }
    if want("fig6") {
        fig6(default_sets);
    }
    if want("fig7") {
        fig7(args.sets.unwrap_or(600));
    }
    if want("fig8") {
        fig8(default_sets);
    }
    if want("fig9") {
        fig9(default_sets);
    }
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Table 3: dataset details.
fn table3(sets: usize) {
    header("Table 3: The Dataset Details");
    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>12} {:>10}  problem/metric/φ",
        "Application", "#Sets", "Elems/Set", "Tokens/Elem", "Tokens", "Postings"
    );
    for app in Application::ALL {
        let w = Workload::build(app, sets, app.default_alpha());
        let s = w.collection.stats();
        let (problem, metric, phi) = match app {
            Application::StringMatching => ("Discovery", "SET-SIMILARITY", "Eds"),
            Application::SchemaMatching => ("Discovery", "SET-SIMILARITY", "Jac"),
            Application::InclusionDependency => ("Search", "SET-CONTAINMENT", "Jac"),
        };
        println!(
            "{:<22} {:>8} {:>10.1} {:>12.1} {:>12} {:>10}  {}/{}/{}  (δ=0.7..0.85, α={})",
            app.name(),
            s.num_sets,
            s.avg_elems_per_set,
            s.avg_tokens_per_elem,
            s.distinct_tokens,
            s.total_postings,
            problem,
            metric,
            phi,
            app.default_alpha(),
        );
    }
}

/// Figure 4: overall performance gains of SilkMoth's optimizations.
fn fig4(sets: usize) {
    header("Figure 4: Overall performance gains (NOOPT vs OPT, defaults δ=0.7)");
    println!(
        "{:<22} {:>12} {:>12} {:>9} {:>8}",
        "Application", "NOOPT (s)", "OPT (s)", "speedup", "pairs"
    );
    for app in Application::ALL {
        let w = Workload::build(app, sets, app.default_alpha());
        let delta = app.default_delta();
        let noopt = w.run(noopt_config(&w, delta));
        let opt = w.run(opt_config(&w, delta));
        assert_eq!(noopt.pairs, opt.pairs, "exactness violated");
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>8.1}x {:>8}",
            app.name(),
            noopt.seconds,
            opt.seconds,
            noopt.seconds / opt.seconds,
            opt.pairs
        );
    }
}

/// Figure 5: signature schemes vs θ (filters and reduction disabled).
fn fig5(sets: usize) {
    let schemes = [
        ("WEIGHTED", SignatureScheme::Weighted),
        ("COMBUNWEIGHTED", SignatureScheme::CombinedUnweighted),
        ("SKYLINE", SignatureScheme::Skyline),
        ("DICHOTOMY", SignatureScheme::Dichotomy),
    ];
    for (panel, app) in [
        ("5a", Application::StringMatching),
        ("5b", Application::SchemaMatching),
        ("5c", Application::InclusionDependency),
    ] {
        let alpha = match app {
            Application::StringMatching => 0.8,
            Application::SchemaMatching => 0.0,
            Application::InclusionDependency => 0.5,
        };
        header(&format!(
            "Figure {panel}: {} (α={alpha}) — signature schemes, no filters",
            app.name()
        ));
        let w = Workload::build(app, sets, alpha);
        print!("{:<8}", "θ");
        for (name, _) in &schemes {
            print!(" {name:>15}");
        }
        println!("   (seconds; candidates in parens)");
        for &theta in &THETAS {
            print!("{theta:<8.2}");
            for &(name, scheme) in &schemes {
                // COMBUNWEIGHTED at α = 0 degenerates to plain unweighted.
                let scheme = if alpha == 0.0 && scheme == SignatureScheme::CombinedUnweighted {
                    SignatureScheme::Unweighted
                } else {
                    scheme
                };
                let out = w.run(w.config(theta, scheme, FilterKind::None, false));
                let _ = name;
                print!(" {:>7.2} ({:>5})", out.seconds, out.stats.candidates);
            }
            println!();
        }
    }
}

/// Figure 6: filters vs θ (dichotomy scheme, no reduction).
fn fig6(sets: usize) {
    let filters = [
        ("NOFILTER", FilterKind::None),
        ("CHECK", FilterKind::Check),
        ("NEARESTNEIGHBOR", FilterKind::CheckAndNearestNeighbor),
    ];
    for (panel, app) in [
        ("6a", Application::StringMatching),
        ("6b", Application::SchemaMatching),
        ("6c", Application::InclusionDependency),
    ] {
        let alpha = app.default_alpha();
        header(&format!(
            "Figure {panel}: {} (α={alpha}) — refinement filters",
            app.name()
        ));
        let w = Workload::build(app, sets, alpha);
        print!("{:<8}", "θ");
        for (name, _) in &filters {
            print!(" {name:>17}");
        }
        println!("   (seconds; verified pairs in parens)");
        for &theta in &THETAS {
            print!("{theta:<8.2}");
            for &(_, filter) in &filters {
                let out = w.run(w.config(theta, SignatureScheme::Dichotomy, filter, false));
                print!(" {:>9.2} ({:>5})", out.seconds, out.stats.verified);
            }
            println!();
        }
    }
}

/// Figure 7: reduction-based verification (inclusion dependency, α = 0,
/// sets with ≥ 100 elements).
fn fig7(sets: usize) {
    header("Figure 7: Reduction-based verification — Inclusion Dependency (α=0, |sets|≥100)");
    let w = Workload::build_reduction(sets);
    println!(
        "{:<8} {:>16} {:>14} {:>9} {:>14}",
        "θ", "NOREDUCTION (s)", "REDUCTION (s)", "gain", "ident. pairs"
    );
    for &theta in &THETAS {
        let no = w.run(w.config(
            theta,
            SignatureScheme::Dichotomy,
            FilterKind::CheckAndNearestNeighbor,
            false,
        ));
        let yes = w.run(w.config(
            theta,
            SignatureScheme::Dichotomy,
            FilterKind::CheckAndNearestNeighbor,
            true,
        ));
        assert_eq!(no.pairs, yes.pairs);
        println!(
            "{:<8.2} {:>16.3} {:>14.3} {:>8.0}% {:>14}",
            theta,
            no.seconds,
            yes.seconds,
            (no.seconds - yes.seconds) / no.seconds * 100.0,
            yes.stats.reduced_pairs
        );
    }
}

/// Figure 8: SilkMoth vs (simulated) FastJoin on string matching, varying
/// θ at α = 0.8 and varying α at θ = 0.8.
fn fig8(sets: usize) {
    header("Figure 8 (left): String matching, varying θ (α=0.8)");
    let w = Workload::build(Application::StringMatching, sets, 0.8);
    println!(
        "{:<8} {:>13} {:>13} {:>9}",
        "θ", "SILKMOTH (s)", "FASTJOIN (s)", "speedup"
    );
    for &theta in &THETAS {
        let silk = w.run(opt_config(&w, theta));
        let fast = w.run(w.config(
            theta,
            SignatureScheme::CombinedUnweighted,
            FilterKind::None,
            false,
        ));
        assert_eq!(silk.pairs, fast.pairs);
        println!(
            "{:<8.2} {:>13.3} {:>13.3} {:>8.1}x",
            theta,
            silk.seconds,
            fast.seconds,
            fast.seconds / silk.seconds
        );
    }

    header("Figure 8 (right): String matching, varying α (θ=0.8)");
    println!(
        "{:<8} {:>13} {:>13} {:>9}",
        "α", "SILKMOTH (s)", "FASTJOIN (s)", "speedup"
    );
    for &alpha in &[0.70, 0.75, 0.80, 0.85] {
        let w = Workload::build(Application::StringMatching, sets, alpha);
        let silk = w.run(opt_config(&w, 0.8));
        let fast = w.run(w.config(
            0.8,
            SignatureScheme::CombinedUnweighted,
            FilterKind::None,
            false,
        ));
        assert_eq!(silk.pairs, fast.pairs);
        println!(
            "{:<8.2} {:>13.3} {:>13.3} {:>8.1}x",
            alpha,
            silk.seconds,
            fast.seconds,
            fast.seconds / silk.seconds
        );
    }
}

/// Figure 9: scalability with the number of sets (full SilkMoth).
fn fig9(base: usize) {
    for (panel, app) in [
        ("9a", Application::StringMatching),
        ("9b", Application::SchemaMatching),
        ("9c", Application::InclusionDependency),
    ] {
        let alpha = app.default_alpha();
        header(&format!(
            "Figure {panel}: Scalability — {} (α={alpha})",
            app.name()
        ));
        print!("{:<10}", "#sets");
        for &theta in &THETAS {
            print!(" {:>12}", format!("θ={theta:.2}"));
        }
        println!("   (seconds)");
        for scale in [1usize, 2, 4, 8] {
            let n = base * scale / 4;
            let w = Workload::build(app, n, alpha);
            print!("{n:<10}");
            for &theta in &THETAS {
                let out = w.run(opt_config(&w, theta));
                print!(" {:>12.3}", out.seconds);
            }
            println!();
        }
    }
}
