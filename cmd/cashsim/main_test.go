package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateFlagsAccepts(t *testing.T) {
	goldenPath := filepath.Join(t.TempDir(), "golden.gob")
	if err := writeFile(goldenPath); err != nil {
		t.Fatal(err)
	}
	cases := []flagValues{
		{}, // all defaults
		{queueCap: 128, stream: "bursts", shed: "deadline"},
		{tier: "cycle"},
		{tier: "interval"},
		{tier: "sampled", sampleWindow: 50_000, sampleStride: 1_000_000},
		{tier: "sampled", sampleWindow: 1_000_000, sampleStride: 1_000_000}, // window == stride: back-to-back windows
		{calibGate: goldenPath}, // goldens present
		{calibGate: "/no/such/golden.gob", calibRecord: "/no/such/golden.gob"}, // record-then-gate creates them
		{calibRecord: filepath.Join(t.TempDir(), "new.gob")},
		{chaos: true, chaosSeeds: 20, fleetSeeds: 5},
		{chaos: true, chaosSeeds: 1, fleetSeeds: 0}, // fleet soak skipped
		{chips: 8, tenants: 12, kill: 3},
		{stream: "flash"}, // stream without shed compares both policies
		{daemonCmd: true, drainTimeout: time.Second},
		{chaos: true, chaosSeeds: 1, daemonSeeds: 2, daemonKills: 3, drainTimeout: time.Second},
		{chaos: true, chaosSeeds: 1, daemonSeeds: 0, kill: 0}, // daemon soak skipped
		{socket: filepath.Join(t.TempDir(), "cashd.sock"), daemonCmd: true, drainTimeout: time.Second},
	}
	for _, v := range cases {
		if err := validateFlags(v); err != nil {
			t.Errorf("validateFlags(%+v) = %v, want nil", v, err)
		}
	}
}

func TestValidateFlagsRejects(t *testing.T) {
	cases := []struct {
		v    flagValues
		want string
	}{
		{flagValues{queueCap: -1}, "-queue-cap"},
		{flagValues{shed: "deadline"}, "-shed"},
		{flagValues{chaos: true, chaosSeeds: 0}, "-chaos-seeds"},
		{flagValues{chaos: true, chaosSeeds: -5}, "-chaos-seeds"},
		{flagValues{fleetSeeds: -1}, "-fleet-seeds"},
		{flagValues{chips: -2}, "non-negative"},
		{flagValues{kill: -1}, "non-negative"},
		{flagValues{chips: 4, kill: 4}, "-kill"},
		{flagValues{chips: 4, kill: 9}, "-kill"},
		{flagValues{socket: "/no/such/parent/cashd.sock", daemonCmd: true, drainTimeout: time.Second}, "-socket"},
		{flagValues{daemonCmd: true}, "-drain-timeout"},
		{flagValues{daemonCmd: true, drainTimeout: -time.Second}, "-drain-timeout"},
		{flagValues{chaos: true, chaosSeeds: 1, daemonSeeds: 2}, "-drain-timeout"},
		{flagValues{daemonSeeds: -1, drainTimeout: time.Second}, "-daemon-seeds"},
		{flagValues{daemonKills: -2, drainTimeout: time.Second}, "-daemon-kills"},
		{flagValues{chaos: true, chaosSeeds: 1, daemonSeeds: 1, kill: 2, drainTimeout: time.Second}, "-daemon-kills"},
		{flagValues{tier: "fast"}, "tier"},
		{flagValues{tier: "Cycle"}, "tier"}, // names are case-sensitive
		{flagValues{tier: "sampled"}, "-sample-window"},
		{flagValues{tier: "sampled", sampleWindow: -1, sampleStride: 1_000_000}, "-sample-window"},
		{flagValues{tier: "sampled", sampleWindow: 50_000, sampleStride: 0}, "-sample-window"},
		{flagValues{tier: "sampled", sampleWindow: 50_000, sampleStride: -7}, "-sample-window"},
		{flagValues{tier: "sampled", sampleWindow: 2_000_000, sampleStride: 1_000_000}, "-sample-window 2000000 exceeds"},
		{flagValues{calibGate: "/no/such/golden.gob"}, "record them first"},
	}
	for _, c := range cases {
		err := validateFlags(c.v)
		if err == nil {
			t.Errorf("validateFlags(%+v) accepted, want error mentioning %q", c.v, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%+v) = %q, want mention of %q", c.v, err, c.want)
		}
	}
}

func TestValidateFlagsSamplingRulesIgnoredOutsideSampledTier(t *testing.T) {
	// Only the sampled tier reads the window geometry; a bad value must
	// not block a cycle- or interval-tier run that never uses it.
	for _, tier := range []string{"", "cycle", "interval"} {
		if err := validateFlags(flagValues{tier: tier, sampleWindow: -1}); err != nil {
			t.Errorf("sample-window validated at tier %q: %v", tier, err)
		}
	}
}

// writeFile creates an empty placeholder at path (the -calib presence
// check only stats the file; decoding happens later in the run).
func writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}

func TestValidateFlagsChaosSeedsIgnoredOutsideChaos(t *testing.T) {
	// -chaos-seeds only gates chaos mode; a plain artifact run never
	// reads it, so a bad value there must not block the run.
	if err := validateFlags(flagValues{chaosSeeds: 0}); err != nil {
		t.Fatalf("chaos-seeds validated outside -chaos: %v", err)
	}
}

func TestValidateFlagsDaemonRulesIgnoredOutsideDaemonModes(t *testing.T) {
	// A plain artifact run never waits on -drain-timeout and never
	// reads -kill as a daemon knob, so neither may block it.
	if err := validateFlags(flagValues{drainTimeout: 0}); err != nil {
		t.Fatalf("drain-timeout validated outside daemon modes: %v", err)
	}
	if err := validateFlags(flagValues{chips: 4, kill: 2, daemonSeeds: 2, drainTimeout: time.Second}); err != nil {
		t.Fatalf("-kill flagged as a daemon knob outside -chaos: %v", err)
	}
}

// failingReport is a soak report that always fails.
type failingReport struct{}

func (failingReport) Text() string { return "fake soak: 1 runs, 1 failures\n" }
func (failingReport) Passed() bool { return false }

// TestRunChaosRemovesScratchOnFailure: a failing soak makes main exit
// non-zero, which skips defers — so runChaos must have removed the
// soaks' scratch directory before it returns.
func TestRunChaosRemovesScratchOnFailure(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var scratch string
	failing := chaosSoak{gate: true, run: func(dir string) (soakReport, error) {
		scratch = dir
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("scratch dir missing during the soak: %v", err)
		}
		return failingReport{}, nil
	}}
	var out strings.Builder
	passed, err := runChaos(&out, []chaosSoak{failing})
	if err != nil {
		t.Fatal(err)
	}
	if passed {
		t.Fatal("a failing gated soak passed -chaos")
	}
	if !strings.HasPrefix(scratch, tmp) || !strings.Contains(out.String(), "1 failures") {
		t.Fatalf("soak ran in %q (want under %q), printed %q", scratch, tmp, out.String())
	}
	left, err := filepath.Glob(filepath.Join(tmp, "cashd-soak-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("scratch directories left behind: %v", left)
	}

	// An ungated soak (the guardrails-off baseline) may fail without
	// failing -chaos.
	failing.gate = false
	if passed, err := runChaos(&out, []chaosSoak{failing}); err != nil || !passed {
		t.Fatalf("ungated failure: passed=%v err=%v, want pass", passed, err)
	}
}
