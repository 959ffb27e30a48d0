//! `hal-serve` — the open-loop load generator.
//!
//! Offers requests to a multi-node actor pipeline at a fixed rate and
//! gates the measured p50/p99/p999 end-to-end latency against a
//! declared SLO. The artifact lands in `results/SERVE_<scenario>.json`.
//!
//! ```text
//! $ hal-serve --backend=live --rate=500 --requests=1000 --slo-p99-ms=50
//! $ hal-serve --verify results/SERVE_pipeline.json
//! ```
//!
//! Flags (all optional):
//!
//! * `--backend=sim|live`   backend (default `sim`)
//! * `--scenario=NAME`      artifact name (default `pipeline`)
//! * `--nodes=N`            partition size (default 4)
//! * `--stages=S`           pipeline depth (default 3)
//! * `--rate=RPS`           offered load (default 500)
//! * `--requests=N`         total requests (default 1000)
//! * `--stage-cost-us=C`    per-stage virtual compute (default 50)
//! * `--seed=S`             machine seed
//! * `--slo-p50-ms=X` / `--slo-p99-ms=X` / `--slo-p999-ms=X`
//! * `--check`              flight-record the run and gate it CLEAN
//! * `--metrics`            record the metrics timeseries, sampled in each
//!   node's own thread (per 100 µs virtual on sim, per 10 ms of its
//!   host-anchored clock on live)
//! * `--spans-rate=R`       head-sample spans at rate R in \[0,1\]
//! * `--watch`              live: refresh the telemetry `top` table on
//!   stderr every ~500 ms while the load runs
//! * `--verify <path>`      instead of serving: sanity-check an artifact
//!
//! Exit status: 2 on a non-positive or non-finite rate or a non-finite
//! SLO; nonzero when the SLO fails, the checker finds violations, or
//! `--verify` rejects the artifact.

use hal_frontend::serve;
use hal_kernel::BackendKind;

fn parse_flag<T: std::str::FromStr>(arg: &str, name: &str) -> Option<T> {
    arg.strip_prefix(name)
        .and_then(|rest| rest.strip_prefix('='))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad value for {name}: `{v}`"))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // --verify submode: check an existing artifact and exit.
    if let Some(pos) = args.iter().position(|a| a == "--verify") {
        let path = args
            .get(pos + 1)
            .unwrap_or_else(|| panic!("--verify takes a path"));
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match serve::verify_artifact(&body) {
            Ok(()) => {
                println!("{path}: OK");
                return;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut cfg = serve::ServeConfig::default();
    for arg in &args {
        if let Some(v) = parse_flag::<BackendKind>(arg, "--backend") {
            cfg.backend = v;
        } else if let Some(v) = parse_flag::<String>(arg, "--scenario") {
            cfg.scenario = v;
        } else if let Some(v) = parse_flag::<usize>(arg, "--nodes") {
            cfg.nodes = v;
        } else if let Some(v) = parse_flag::<usize>(arg, "--stages") {
            cfg.stages = v;
        } else if let Some(v) = parse_flag::<f64>(arg, "--rate") {
            cfg.rate_rps = v;
        } else if let Some(v) = parse_flag::<u64>(arg, "--requests") {
            cfg.requests = v;
        } else if let Some(v) = parse_flag::<u64>(arg, "--stage-cost-us") {
            cfg.stage_cost_ns = v * 1000;
        } else if let Some(v) = parse_flag::<u64>(arg, "--seed") {
            cfg.seed = v;
        } else if let Some(v) = parse_flag::<f64>(arg, "--slo-p50-ms") {
            cfg.slo.p50_ms = v;
        } else if let Some(v) = parse_flag::<f64>(arg, "--slo-p99-ms") {
            cfg.slo.p99_ms = v;
        } else if let Some(v) = parse_flag::<f64>(arg, "--slo-p999-ms") {
            cfg.slo.p999_ms = v;
        } else if let Some(v) = parse_flag::<f64>(arg, "--spans-rate") {
            assert!((0.0..=1.0).contains(&v), "--spans-rate must be in [0, 1]");
            cfg.span_sample_ppm = Some((v * 1e6).round() as u32);
        } else if arg == "--check" {
            cfg.check = true;
        } else if arg == "--metrics" {
            cfg.metrics = true;
        } else if arg == "--watch" {
            cfg.watch = true;
        } else {
            panic!("unknown flag `{arg}` (see the module doc)");
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("hal-serve: {e}");
        std::process::exit(2);
    }

    let out = match serve::run(cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    };

    let path = serve::artifact_path(&out.cfg.scenario);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results/");
    }
    std::fs::write(&path, out.to_json()).expect("write serve artifact");
    println!("{}", out.summary());
    println!("wrote {}", path.display());

    let slo_ok = out.slo_pass();
    let check_ok = out.check_clean.unwrap_or(true);
    if !slo_ok {
        eprintln!("SLO FAILED");
    }
    if !check_ok {
        eprintln!("protocol checker found violations");
    }
    if !slo_ok || !check_ok {
        std::process::exit(1);
    }
}
