//! The benchmark's own contract: seeded op sequences, honest
//! percentiles, every declared metric emitted, and `BENCHMARK.json`
//! declaring exactly the metrics the crate reports.

use worlds_perfbench::metrics::{END_TO_END, PER_LAYER};
use worlds_perfbench::stats::{Samples, MIN_BEYOND};
use worlds_perfbench::{execute, host, rfork_ship, session_storm, spec_blocks, WORKLOADS};

#[test]
fn same_seed_same_op_sequence() {
    let spec = spec_blocks::SpecBlocks::default();
    let blocks = |seed| {
        let mut g = spec_blocks::Gen::new(&spec, seed);
        (0..200).map(|_| g.next_block()).collect::<Vec<_>>()
    };
    assert_eq!(blocks(7), blocks(7));
    assert_ne!(blocks(7), blocks(8));

    let storm = session_storm::SessionStorm::default();
    let cycles = |seed, client| {
        let mut g = session_storm::Gen::new(&storm, seed, client);
        (0..200).map(|_| g.next_cycle()).collect::<Vec<_>>()
    };
    assert_eq!(cycles(7, 0), cycles(7, 0));
    assert_ne!(cycles(7, 0), cycles(8, 0));
    assert_ne!(cycles(7, 0), cycles(7, 1), "clients draw different streams");

    let rfork = rfork_ship::RforkShip::default();
    let dist = |seed| {
        let mut g = rfork_ship::Gen::new(&rfork, seed);
        (0..200).map(|_| g.next_block()).collect::<Vec<_>>()
    };
    assert_eq!(dist(7), dist(7));
    assert_ne!(dist(7), dist(8));
}

#[test]
fn op_sequences_keep_their_stated_shape() {
    let spec = spec_blocks::SpecBlocks::default();
    let mut g = spec_blocks::Gen::new(&spec, 3);
    for _ in 0..500 {
        let block = g.next_block();
        assert_eq!(block.len(), 4);
        assert!(block[3].pass, "the last alternative always passes");
        for alt in &block {
            assert!((1..=8).contains(&alt.pages.len()));
            assert!((5_000..=45_000).contains(&alt.burn_ns));
        }
    }
    let storm = session_storm::SessionStorm::default();
    let share = storm.repeat_share(3, 2_000);
    assert!((0.2..0.3).contains(&share), "repeat share {share}");
    let mut g = session_storm::Gen::new(&storm, 3, 0);
    for _ in 0..500 {
        let c = g.next_cycle();
        assert_ne!(c.commit, c.stale);
        assert!(c.spawns.iter().flatten().all(|&(vpn, _)| vpn < 16));
    }
}

#[test]
fn percentile_refuses_without_ten_samples_beyond() {
    let s = Samples::new((1..=100).collect());
    assert_eq!(s.percentile(50.0), Some(50));
    assert_eq!(s.percentile(89.0), Some(89), "11 samples lie beyond p89");
    assert_eq!(s.percentile(90.0), Some(90), "10 samples lie beyond p90");
    assert_eq!(s.percentile(99.0), None, "1 sample lies beyond p99");
    let s = Samples::new((0..999).collect());
    assert_eq!(s.percentile(99.0), None);
    let s = Samples::new((0..1_000).collect());
    assert!(s.percentile(99.0).is_some());
    assert!(Samples::new(vec![5; MIN_BEYOND]).percentile(50.0).is_none());
    assert!(s.us(99.9, "x").is_err());
}

#[test]
fn behaviour_changing_env_is_refused() {
    let set = |k: &str| vec![(k.to_string(), "1".to_string())];
    for k in host::BEHAVIOUR_ENV {
        assert!(host::refuse_behaviour_env(&set(k)).is_err(), "{k}");
    }
    assert!(host::refuse_behaviour_env(&set("WORLDS_SERVER_HOLD_MS")).is_ok());
}

/// `"name": "..."` values in one array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name ends")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| u[..u.find('"').expect("unit ends")].to_string())
                .unwrap_or_default();
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let own = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn short_runs_emit_every_named_metric() {
    for w in WORKLOADS {
        let out = execute(w, 11, 0.2, false).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(out.correct(), "{w}: {:?}", out.violations);
        out.metrics
            .json(END_TO_END)
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        assert_eq!(out.metrics.get("ok_share"), Some(1.0));

        let out = execute(w, 11, 0.2, true).unwrap_or_else(|e| panic!("{w} traced: {e}"));
        assert!(out.correct(), "{w} traced: {:?}", out.violations);
        out.metrics
            .json(PER_LAYER)
            .unwrap_or_else(|e| panic!("{w} traced: {e}"));
        let m = |n: &str| out.metrics.get(n).expect(n);
        let parts = m("core.dispatch_us_mean") + m("core.alt_us_mean") + m("core.commit_us_mean");
        assert!(
            (parts - m("core.block_us_mean")).abs() < 1e-6 * parts,
            "{w}: dispatch + alt + commit = {parts}, block = {}",
            m("core.block_us_mean")
        );
        assert!(!out.trace.is_empty(), "{w}: the traced run kept its spans");
    }
}
