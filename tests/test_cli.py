"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


def test_legacy_flags_are_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--compare", "--members", "2"])
    assert excinfo.value.code == 2


def test_serve_has_no_obs_port_flag(capsys):
    # The gateway serves GET /metrics on its own port.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--obs-port", "9464"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --obs-port" in capsys.readouterr().err


# ----------------------------------------------------------------------
# scenario subcommands
# ----------------------------------------------------------------------
def test_list_subcommand_catalogues_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig6_latency", "fig7_throughput", "byzantine_flood", "churn"):
        assert name in out


def test_list_groups_scenarios_by_family(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    # Family headings appear, in catalogue order.
    positions = [
        out.index("== Paper figures"),
        out.index("== Adversarial audits"),
        out.index("== Scale & batching"),
        out.index("== Stress & comparators"),
    ]
    assert positions == sorted(positions)
    # Every scenario sits under its family heading.
    assert positions[0] < out.index("fig6_latency") < positions[1]
    assert positions[1] < out.index("adv_equivocation") < positions[2]
    assert positions[2] < out.index("scale_batch_ab") < positions[3]
    assert positions[3] < out.index("pbft_head_to_head")


def test_scenario_family_mapping():
    from repro.cli import scenario_family

    assert scenario_family("fig6_latency") == "fig"
    assert scenario_family("fig7_throughput") == "fig"
    assert scenario_family("adv_replay") == "adv"
    assert scenario_family("scale_groups") == "scale"
    assert scenario_family("pbft_head_to_head") == "stress"
    assert scenario_family("mixed_rw") == "stress"


def test_run_subcommand_unknown_scenario(capsys):
    assert main(["run", "--scenario", "fig99_warp"]) == 2
    assert "fig99_warp" in capsys.readouterr().out


def test_list_family_filters_the_catalogue(capsys):
    assert main(["list", "--family", "scale_shard"]) == 0
    out = capsys.readouterr().out
    assert "scale_shard_ab" in out
    assert "scale_shard_xratio" in out
    assert "fig6_latency" not in out
    assert "scale_batch_ab" not in out  # prefix match, not family match


def test_list_family_accepts_family_keys(capsys):
    assert main(["list", "--family", "fig"]) == 0
    out = capsys.readouterr().out
    assert "fig6_latency" in out
    assert "adv_equivocation" not in out


def test_list_unknown_family_exits_nonzero(capsys):
    assert main(["list", "--family", "warp9"]) == 2
    out = capsys.readouterr().out
    assert "no scenarios in family 'warp9'" in out
    assert "known families" in out


def test_run_subcommand_prints_tables(capsys):
    code = main(["run", "--scenario", "partition_heal"])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput_msgs_per_s" in out
    assert "view_changes" in out
    assert "expected:" in out


def test_campaign_and_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "campaign.jsonl"
    code = main(
        [
            "campaign",
            "--scenario",
            "pbft_head_to_head",
            "--repeats",
            "2",
            "--jobs",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    campaign_out = capsys.readouterr().out
    assert "8 runs" in campaign_out  # 2 systems x 2 points x 2 repeats
    assert out_path.exists()

    assert main(["report", "--results", str(out_path)]) == 0
    report_out = capsys.readouterr().out
    assert "2 repeats" in report_out
    assert "throughput ordering" in report_out


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path / "nope.jsonl")]) == 2


# ----------------------------------------------------------------------
# sharded runs: repro run --shards and the report's shard columns
# ----------------------------------------------------------------------
def test_run_sharded_scenario_prints_shard_tables(capsys):
    assert main(["run", "--scenario", "scale_shard_smoke"]) == 0
    out = capsys.readouterr().out
    assert "per_shard_throughput" in out
    assert "cross_shard_latency_mean_ms" in out
    assert "load_imbalance" in out
    assert "sharding:" in out


def test_run_shards_override(capsys):
    code = main(["run", "--scenario", "scale_shard_smoke", "--shards", "4",
                 "--cross-shard-ratio", "0.25"])
    assert code == 0
    assert "up to S=4" in capsys.readouterr().out


def test_run_shards_rejects_indivisible_group(capsys):
    assert main(["run", "--scenario", "scale_shard_smoke", "--shards", "3"]) == 2
    assert "not divisible" in capsys.readouterr().out


def test_run_shards_rejects_non_fs_systems(capsys):
    assert main(["run", "--scenario", "fig6_latency", "--shards", "2"]) == 2
    assert "--systems fs-newtop" in capsys.readouterr().out


def test_run_cross_shard_ratio_needs_shards(capsys):
    code = main(["run", "--scenario", "scale_shard_smoke",
                 "--cross-shard-ratio", "0.5"])
    assert code == 2
    assert "--cross-shard-ratio needs --shards" in capsys.readouterr().out


def test_sharded_campaign_report_shows_shard_columns(tmp_path, capsys):
    out_path = tmp_path / "shard.jsonl"
    assert main(["campaign", "--scenario", "scale_shard_smoke",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--results", str(out_path)]) == 0
    report_out = capsys.readouterr().out
    assert "per_shard_throughput" in report_out
    assert "load_imbalance" in report_out
    assert "sharding:" in report_out


def test_audit_sharded_scenario_passes(capsys):
    assert main(["audit", "--scenario", "scale_shard_smoke"]) == 0
    out = capsys.readouterr().out
    assert "cross-shard-order" in out
    assert "verdict: PASS" in out


# ----------------------------------------------------------------------
# bench subcommand
# ----------------------------------------------------------------------
def _fake_baseline(path, name, ops_per_s):
    import json

    path.write_text(json.dumps({
        "version": 1,
        "meta": {},
        "benchmarks": {name: {"ops": 100, "wall_s": 1.0, "ops_per_s": ops_per_s}},
    }))


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bench", "--only", "hmac_sign_verify", "--repeats", "1",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert "hmac_sign_verify" in capsys.readouterr().out


def test_bench_check_passes_against_honest_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    # a baseline slow enough that any machine beats it
    _fake_baseline(baseline, "hmac_sign_verify", 0.001)
    code = main(["bench", "--only", "hmac_sign_verify", "--repeats", "1",
                 "--out", str(tmp_path / "r.json"), "--check", str(baseline)])
    assert code == 0
    assert "OK: within tolerance" in capsys.readouterr().out


def test_bench_check_fails_on_injected_regression(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    # an impossibly fast baseline: the measured run must "regress"
    _fake_baseline(baseline, "hmac_sign_verify", 1e15)
    code = main(["bench", "--only", "hmac_sign_verify", "--repeats", "1",
                 "--out", str(tmp_path / "r.json"), "--check", str(baseline)])
    assert code == 1
    assert "regression" in capsys.readouterr().out


def test_bench_update_writes_baseline(tmp_path):
    baseline = tmp_path / "new_baseline.json"
    assert main(["bench", "--only", "hmac_sign_verify", "--repeats", "1",
                 "--out", str(tmp_path / "r.json"), "--update", str(baseline)]) == 0
    assert baseline.exists()


def test_bench_unknown_benchmark_rejected(tmp_path, capsys):
    assert main(["bench", "--only", "warp_drive",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "unknown benchmarks" in capsys.readouterr().out


def test_bench_unreadable_baseline_rejected(tmp_path, capsys):
    assert main(["bench", "--only", "hmac_sign_verify",
                 "--out", str(tmp_path / "r.json"),
                 "--check", str(tmp_path / "nope.json")]) == 2
    assert "cannot read baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# audit subcommand
# ----------------------------------------------------------------------
def test_audit_passes_on_clean_scenario(capsys):
    assert main(["audit", "--scenario", "adv_clean_baseline"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "0 failing" in out


def test_audit_unknown_scenario_rejected(capsys):
    assert main(["audit", "--scenario", "adv_warp"]) == 2
    assert "adv_warp" in capsys.readouterr().out


def test_audit_unknown_adversary_rejected(capsys):
    assert main(["audit", "--scenario", "adv_clean_baseline",
                 "--adversary", "meteor"]) == 2
    assert "unknown adversary" in capsys.readouterr().out


def test_audit_overlays_named_adversary(capsys):
    code = main(["audit", "--scenario", "adv_clean_baseline",
                 "--adversary", "selective_mute", "--member", "1", "--at", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "adversary overlay: selective_mute" in out
    assert "fail_signals=1" in out


def test_audit_fails_nonzero_when_detection_is_broken(monkeypatch, capsys):
    from repro.core.fso import Fso

    monkeypatch.setattr(Fso, "_start_signaling", lambda self, reason: None)
    assert main(["audit", "--scenario", "adv_selective_mute"]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert "no fail-signal followed" in out


def test_audit_pair_adversary_skips_newtop_cleanly(capsys):
    # partition_heal is newtop-only: every cell is skipped with a note,
    # so nothing is auditable -- a clean error, not a traceback.
    code = main(["audit", "--scenario", "partition_heal", "--adversary", "mute"])
    assert code == 2
    out = capsys.readouterr().out
    assert "fs-newtop only" in out
    assert "nothing auditable" in out
    assert "Traceback" not in out


def test_audit_bad_overlay_overrides_rejected_cleanly(capsys):
    assert main(["audit", "--scenario", "adv_clean_baseline",
                 "--adversary", "mute", "--member", "9"]) == 2
    assert "only 4 members" in capsys.readouterr().out
    assert main(["audit", "--scenario", "adv_clean_baseline",
                 "--adversary", "mute", "--at", "-5"]) == 2
    assert "bad adversary override" in capsys.readouterr().out


# ----------------------------------------------------------------------
# flag overlays: the spec each command builds from --shards,
# --transport, --crypto and --obs-port, captured at the execution seam
# ----------------------------------------------------------------------
@pytest.fixture
def captured_specs(monkeypatch):
    """Stub the four execution seams; every spec they receive is
    appended to the returned list instead of being run."""
    import types

    from repro import experiments
    from repro.service import serve

    specs = []

    def execute(self, jobs=1, store=None):
        specs.extend(task.spec for task in self.plan())
        return []

    def audit(spec, config=None, scenario=None):
        specs.append(spec)
        report = types.SimpleNamespace(ok=True, render=lambda: "verdict: PASS")
        return types.SimpleNamespace(report=report, flight_bundle=None)

    def observe(spec, scenario=None):
        specs.append(spec)
        return {}

    def build(spec, host="127.0.0.1", port=0):
        specs.append(spec)
        clock = types.SimpleNamespace(add_starter=lambda starter: None)
        return types.SimpleNamespace(clock=clock, run=lambda until_ms: None)

    monkeypatch.setattr(experiments.Campaign, "execute", execute)
    monkeypatch.setattr(experiments, "audit_scenario", audit)
    monkeypatch.setattr(experiments, "observe_spec", observe)
    monkeypatch.setattr(serve, "build_server", build)
    monkeypatch.setattr(serve, "describe", lambda handle: "ordering service")
    return specs


def _overlaid(spec):
    """The overlay-relevant fields of a spec, as plain values."""
    transport = spec.transport
    shard = spec.shard
    return {
        "system": spec.system,
        "transport": None if transport is None else (
            transport.kind, transport.tcp, transport.time_scale, transport.calibrate
        ),
        "crypto": None if spec.crypto is None else (spec.crypto.provider, spec.crypto.codec),
        "obs": None if spec.obs is None else (spec.obs.enabled, spec.obs.http_port),
        "shard": None if shard is None else (
            shard.shards, shard.cross_shard_ratio, shard.keyspace
        ),
    }


def _fields(system="fs-newtop", transport=None, crypto=None, obs=None, shard=None):
    return {"system": system, "transport": transport, "crypto": crypto,
            "obs": obs, "shard": shard}


LIVE = ("asyncio", False, 1.0, True)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run", "--scenario", "adv_clean_baseline", "--transport", "asyncio",
          "--tcp", "--time-scale", "0.5", "--no-calibrate"],
         [_fields(transport=("asyncio", True, 0.5, False))]),
        (["run", "--scenario", "adv_clean_baseline", "--transport", "sim"],
         [_fields(transport=("sim", False, 1.0, True))]),
        (["run", "--scenario", "adv_clean_baseline", "--crypto", "ed25519:binwire"],
         [_fields(crypto=("ed25519", "binwire"))]),
        (["run", "--scenario", "adv_clean_baseline", "--crypto", "hmac"],
         [_fields(crypto=("hmac", "canonical"))]),
        (["run", "--scenario", "adv_clean_baseline", "--obs-port", "0"],
         [_fields(obs=(True, 0))]),
        (["run", "--scenario", "adv_clean_baseline", "--shards", "2"],
         [_fields(shard=(2, 0.0, 64))]),
        (["run", "--scenario", "scale_shard_smoke", "--shards", "2",
          "--cross-shard-ratio", "0.5", "--transport", "asyncio",
          "--crypto", "rsa", "--obs-port", "9464"],
         [_fields(transport=LIVE, crypto=("rsa", "canonical"), obs=(True, 9464),
                  shard=(2, 0.5, 32))]),
        # Sweep points that set their own field win over the overlay.
        (["run", "--scenario", "scale_crypto_ab", "--crypto", "hmac:binwire"],
         [_fields(crypto=c) for c in (("rsa", "canonical"), ("hmac", "canonical"),
                                      ("ed25519", "canonical"), ("ed25519", "binwire"))]),
        # audit overlays every expanded cell; --crypto skips the newtop ones.
        (["audit", "--scenario", "adv_clean_baseline", "--transport", "asyncio",
          "--crypto", "ed25519", "--obs-port", "0"],
         [_fields(transport=LIVE, crypto=("ed25519", "canonical"), obs=(True, 0))]),
        (["audit", "--scenario", "mixed_rw", "--crypto", "hmac:binwire"],
         [_fields(crypto=("hmac", "binwire"))] * 3),
        (["audit", "--scenario", "mixed_rw", "--transport", "asyncio", "--tcp"],
         [_fields(system=s, transport=("asyncio", True, 1.0, True))
          for s in ("newtop",) * 3 + ("fs-newtop",) * 3]),
        # serve defaults to the asyncio transport.
        (["serve", "--for", "0.1"], [_fields(transport=LIVE)]),
        (["serve", "--for", "0.1", "--transport", "asyncio", "--tcp",
          "--shards", "2", "--crypto", "ed25519:binwire"],
         [_fields(transport=("asyncio", True, 1.0, True),
                  crypto=("ed25519", "binwire"), shard=(2, 0.0, 64))]),
        (["serve", "--for", "0.1", "--scenario", "scale_shard_smoke", "--shards", "4"],
         [_fields(transport=LIVE, shard=(4, 0.25, 32))]),
        (["obs", "--scenario", "adv_clean_baseline"], [_fields()]),
        (["obs", "--scenario", "adv_clean_baseline", "--transport", "asyncio",
          "--no-calibrate", "--crypto", "rsa:binwire", "--obs-port", "0"],
         [_fields(transport=("asyncio", False, 1.0, False),
                  crypto=("rsa", "binwire"), obs=(True, 0))]),
    ],
)
def test_overlay_flags_shape_the_spec(captured_specs, capsys, argv, expected):
    assert main(argv) == 0, capsys.readouterr().out
    assert [_overlaid(spec) for spec in captured_specs] == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scenario", "adv_clean_baseline", "--tcp"],
         "need --transport asyncio"),
        (["audit", "--scenario", "adv_clean_baseline", "--time-scale", "2"],
         "need --transport asyncio"),
        (["serve", "--for", "0.1", "--no-calibrate"], "need --transport asyncio"),
        (["obs", "--scenario", "adv_clean_baseline", "--tcp"],
         "need --transport asyncio"),
        (["run", "--scenario", "adv_clean_baseline", "--crypto", "warp"],
         "unknown crypto provider 'warp'"),
        (["audit", "--scenario", "adv_clean_baseline", "--crypto", "hmac:warp"],
         "unknown signing codec 'warp'"),
        (["serve", "--for", "0.1", "--crypto", "warp"], "unknown crypto provider"),
        (["obs", "--scenario", "adv_clean_baseline", "--crypto", "hmac:warp"],
         "unknown signing codec"),
        (["run", "--scenario", "adv_clean_baseline", "--obs-port", "70000"],
         "--obs-port must be in [0, 65535], got 70000"),
        (["audit", "--scenario", "adv_clean_baseline", "--obs-port", "70000"],
         "--obs-port must be in [0, 65535]"),
        (["obs", "--scenario", "adv_clean_baseline", "--obs-port", "-1"],
         "--obs-port must be in [0, 65535]"),
        (["run", "--scenario", "adv_clean_baseline", "--shards", "3"],
         "not divisible"),
        (["serve", "--for", "0.1", "--shards", "3"], "3 shards"),
        (["run", "--scenario", "pbft_head_to_head", "--transport", "asyncio"],
         "cannot drive pbft"),
        (["run", "--scenario", "fig6_latency", "--crypto", "hmac"],
         "--crypto applies to fs-newtop runs only"),
        (["serve", "--for", "0.1", "--transport", "sim"], "needs a live transport"),
        (["obs", "--url", "http://127.0.0.1:1/metrics", "--crypto", "hmac"],
         "apply to --scenario mode only"),
    ],
)
def test_overlay_flag_errors_exit_2(captured_specs, capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().out
    assert captured_specs == []
