//! The `avgi` executable from the outside: exit statuses, the command list,
//! and that every command the scripts and CI name exists.

use avgi_bench::cmd::COMMANDS;
use std::process::{Command, Output};

fn avgi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_avgi"))
        .args(args)
        .output()
        .expect("avgi runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_or_unknown_command_lists_every_command_and_exits_2() {
    for args in [&[][..], &["fig99_nothing"], &["--faults", "3"]] {
        let out = avgi(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = stderr(&out);
        for c in COMMANDS {
            assert!(err.contains(c.name), "{args:?}: list lacks {}", c.name);
        }
    }
    assert_eq!(COMMANDS.len(), 10);
    assert!(stderr(&avgi(&["fig99_nothing"])).contains("unknown command `fig99_nothing`"));
}

#[test]
fn a_command_without_a_campaign_runs_to_exit_0() {
    let out = avgi(&["trace_dump", "--workload", "bitcount"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("golden trace of `bitcount`"), "{text}");
    assert!(!stderr(&out).contains("[campaign]"), "{}", stderr(&out));
}

/// The eleven figures' titles, in the order `paper` prints them.
const TITLES: [&str; 11] = [
    "Fig. 1 — ",
    "Fig. 2 — ",
    "Fig. 3 — ",
    "Fig. 4 — ",
    "Fig. 5 — ",
    "Fig. 7 — ",
    "Fig. 8 — ",
    "Table II — ",
    "Fig. 10 — ",
    "Fig. 11 — ",
    "Fig. 12 — ",
];

/// Every figure is a fold over one matrix: 12 structures x 14 workloads,
/// one ground-truth and one AVGI campaign each, plus the same on 3
/// structures of the small core for Fig. 12, which `--small` shares.
#[test]
fn the_paper_simulates_each_campaign_once() {
    for (flags, campaigns) in [(&[][..], 420), (&["--small"], 336)] {
        let mut argv = vec!["paper", "--faults", "2"];
        argv.extend(flags);
        let out = avgi(&argv);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        let at: Vec<usize> = (TITLES.iter())
            .map(|t| text.lines().position(|l| l.starts_with(t)))
            .map(|at| at.unwrap_or_else(|| panic!("{argv:?}: a title is missing:\n{text}")))
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{argv:?}: {at:?}");
        assert!(text.contains("256-combination census"), "{text}");
        assert!(
            text.lines()
                .any(|l| l.trim_start().starts_with("sum") && l.contains("256")),
            "{text}"
        );
        let err = stderr(&out);
        let mut lines: Vec<&str> = err
            .lines()
            .filter(|l| l.starts_with("[campaign] "))
            .collect();
        assert_eq!(lines.len(), campaigns, "{argv:?}");
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), campaigns, "{argv:?}: a campaign ran twice");
    }
}

#[test]
fn an_argv_error_prints_usage_and_exits_2_before_anything_starts() {
    // Figure command: the typo is reported before any campaign runs.
    let out = avgi(&["paper", "--fault", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = stderr(&out);
    assert!(err.contains("unknown argument `--fault`"), "{err}");
    assert!(
        err.contains("usage: avgi paper [--faults N>=1] [--seed S]"),
        "{err}"
    );

    // Grid command: nothing is bound and no queue file is created.
    let queue = std::env::temp_dir().join(format!("avgi-cli-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&queue);
    let argv = format!(
        "grid_service --bind 127.0.0.1:0 --http 127.0.0.1:0 --queue {} --lease-ms soon",
        queue.display()
    );
    let out = avgi(&argv.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--lease-ms wants N, got `soon`"), "{err}");
    assert!(
        err.contains("usage: avgi grid_service [--bind ADDR]"),
        "{err}"
    );
    assert!(!err.contains("[service]"), "{err}");
    assert!(!queue.exists(), "the service must not have started");

    // The one integer rule reaches every numeric flag of every command.
    for cmd in ["grid_submit", "paper"] {
        let out = avgi(&[cmd, "--seed", "0xA4610001", "--stop-here"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(
            err.contains("unknown argument `--stop-here`"),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn a_figure_command_runs_each_interleaved_shard_and_refuses_one_past_the_last() {
    let run = |shard| avgi(&["paper", "--faults", "3", "--small", "--shard", shard]);
    for shard in ["0/2", "1/2"] {
        let out = run(shard);
        assert_eq!(out.status.code(), Some(0), "{shard}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{shard}");
        assert!(
            stderr(&out).contains(&format!(", shard {shard})")),
            "{shard}"
        );
    }
    let out = run("2/2");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(stderr(&out).contains("--shard wants I/N, got `2/2`"));
}

#[test]
fn a_campaign_of_no_faults_is_refused() {
    for cmd in ["paper", "avf_report", "ablation_prefetch"] {
        let out = avgi(&[cmd, "--faults", "0"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
        let err = stderr(&out);
        assert!(err.contains("--faults wants N>=1, got `0`"), "{cmd}: {err}");
    }
}

/// Every campaign a command runs goes through one executor, so a command
/// that used to ignore `--shard` and `--metrics` honours both.
#[test]
fn every_campaign_command_shards_and_dumps_its_metrics() {
    let path = std::env::temp_dir().join(format!("avgi-cli-paper-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let metrics = path.to_str().expect("utf-8 temp path");
    let argv = [
        "paper",
        "--small",
        "--faults",
        "2",
        "--shard",
        "0/2",
        "--metrics",
        metrics,
    ];
    let out = avgi(&argv);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("shard 0/2"), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("the metrics dump was written");
    let _ = std::fs::remove_file(&path);
    // One run per campaign: interleaved shard 0 of a 2-fault campaign.
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"completed\":336,"), "{text}");
}

#[test]
fn a_flag_a_command_does_not_use_is_refused() {
    for argv in [
        &["paper", "--workload", "sha"][..],
        &["trace_dump", "--faults", "3"],
    ] {
        let out = avgi(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}");
        assert!(
            stderr(&out).contains(&format!("unknown argument `{}`", argv[1])),
            "{argv:?}: {}",
            stderr(&out)
        );
    }
}

/// The command word of every `run`/`runm` line of a script and of every
/// `./target/release/avgi` invocation.
fn commands_named_in(text: &str) -> Vec<String> {
    let mut named = Vec::new();
    for line in text.lines().map(str::trim_start) {
        let mut words = line.split_whitespace();
        if matches!(words.next(), Some("run" | "runm")) {
            // (`runm` itself calls `run "$bin" …`: a variable, not a name.)
            named.extend(
                words
                    .next()
                    .filter(|w| !w.starts_with('"'))
                    .map(str::to_string),
            );
        }
        for (at, _) in line.match_indices("./target/release/") {
            let mut words = line[at + "./target/release/".len()..].split_whitespace();
            assert_eq!(words.next(), Some("avgi"), "not the one executable: {line}");
            named.push(words.next().unwrap_or("").to_string());
        }
    }
    named
}

#[test]
fn scripts_and_ci_name_only_registered_commands() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (file, at_least) in [
        ("run_experiments.sh", 1),
        ("run_experiments_extra.sh", 4),
        (".github/workflows/ci.yml", 7),
    ] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).expect(file);
        let named = commands_named_in(&text);
        assert!(named.len() >= at_least, "{file}: found only {named:?}");
        for name in &named {
            assert!(
                COMMANDS.iter().any(|c| c.name == name),
                "{file} names `{name}`, which `avgi` does not have"
            );
        }
    }
}
