package soak

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cash/internal/par"
)

type scen string

func (s scen) Name() string { return string(s) }

var table = []scen{"alpha", "beta", "gamma"}

// spec builds a fake soak whose digest is a pure function of
// (scenario, seed) and whose counter records the seed.
func spec(run func(s scen, seed uint64, replay bool) Outcome[uint64]) Spec[scen, uint64] {
	if run == nil {
		run = func(s scen, seed uint64, _ bool) Outcome[uint64] {
			return Outcome[uint64]{Digest: fmt.Sprintf("%s/%d", s, seed), Counters: seed}
		}
	}
	return Spec[scen, uint64]{
		Name:      "fake",
		Title:     "fake soak: ",
		Scenarios: table,
		Seeds:     3,
		Seed:      func(i int) uint64 { return uint64(10 + i) },
		Pool:      par.Serial(),
		Run:       run,
		Columns:   func([]Run[uint64]) string { return "" },
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	sp := spec(nil)
	sp.Select = []string{"beta", "nope"}
	_, err := Drive(sp)
	if err == nil || !strings.Contains(err.Error(), `unknown scenario "nope"`) {
		t.Fatalf("err = %v, want an unknown-scenario error", err)
	}
	sp.Select = []string{"gamma", "alpha"}
	rep, err := Drive(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rep.Scenarios, ","); got != "gamma,alpha" {
		t.Fatalf("selected %s, want gamma,alpha", got)
	}
}

func TestNegativeSeedsRejected(t *testing.T) {
	sp := spec(nil)
	sp.Seeds = -1
	if _, err := Drive(sp); err == nil {
		t.Fatal("negative seed count accepted")
	}
}

func TestPanicBecomesViolation(t *testing.T) {
	var ran atomic.Int64
	sp := spec(func(s scen, seed uint64, _ bool) Outcome[uint64] {
		ran.Add(1)
		if s == "beta" && seed == 11 {
			panic("boom")
		}
		return Outcome[uint64]{Digest: "d"}
	})
	sp.Pool = par.New(4)
	rep, err := Drive(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2*9 {
		t.Fatalf("%d executions ran, want every run and its replay (18)", got)
	}
	if rep.Failures != 1 || rep.Passed() {
		t.Fatalf("failures = %d, want exactly the panicking run", rep.Failures)
	}
	for _, r := range rep.Runs {
		bad := r.Scenario == "beta" && r.Seed == 11
		if r.Panicked != bad || (len(r.Violations) > 0) != bad {
			t.Errorf("%s seed %d: panicked=%v violations=%v", r.Scenario, r.Seed, r.Panicked, r.Violations)
		}
		if bad && (!r.ReplayIdentical || r.Violations[0] != "panic: boom") {
			t.Errorf("panicking run reported %v (replay identical %v)", r.Violations, r.ReplayIdentical)
		}
	}
}

func TestReplayDivergenceReported(t *testing.T) {
	sp := spec(func(s scen, seed uint64, replay bool) Outcome[uint64] {
		out := Outcome[uint64]{Digest: "same"}
		if s == "gamma" && replay {
			out.Digest = "other"
			out.Violations = []string{"only on replay"}
		}
		return out
	})
	rep, err := Drive(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 3 {
		t.Fatalf("failures = %d, want the 3 gamma seeds", rep.Failures)
	}
	want := []string{"replay diverged: digest same vs other", "replay: only on replay"}
	for _, r := range rep.Runs {
		if r.Scenario != "gamma" {
			continue
		}
		if r.ReplayIdentical || strings.Join(r.Violations, "|") != strings.Join(want, "|") {
			t.Errorf("seed %d: identical=%v violations=%q, want %q", r.Seed, r.ReplayIdentical, r.Violations, want)
		}
	}
	if !strings.Contains(rep.Text(), "FAIL gamma seed 10: replay diverged") {
		t.Errorf("text omits the divergence:\n%s", rep.Text())
	}
}

// A violation both executions hit is reported once, not twice.
func TestSharedViolationNotDuplicated(t *testing.T) {
	sp := spec(func(scen, uint64, bool) Outcome[uint64] {
		return Outcome[uint64]{Digest: "d", Violations: []string{"broken"}}
	})
	rep, err := Drive(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if len(r.Violations) != 1 {
			t.Fatalf("violations = %q, want one", r.Violations)
		}
	}
}

func TestCanonicalOrderAtAnyPoolSize(t *testing.T) {
	var want []string
	for _, s := range table {
		for i := 0; i < 3; i++ {
			want = append(want, fmt.Sprintf("%s/%d", s, 10+i))
		}
	}
	for _, workers := range []int{1, 4} {
		sp := spec(nil)
		sp.Pool = par.New(workers)
		rep, err := Drive(sp)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rep.Runs {
			got = append(got, r.Digest)
			if r.Counters != r.Seed || r.Scenario+"/"+fmt.Sprint(r.Seed) != r.Digest {
				t.Errorf("pool %d: run %+v carries another cell's outcome", workers, r)
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("pool %d: order %v, want %v", workers, got, want)
		}
	}
}

func TestSummary(t *testing.T) {
	sp := spec(func(s scen, seed uint64, _ bool) Outcome[uint64] {
		out := Outcome[uint64]{Digest: "d", Counters: seed}
		if s == "alpha" && seed == 10 {
			out.Violations = []string{"bad"}
		}
		return out
	})
	sp.NameWidth = 8
	sp.Columns = func(runs []Run[uint64]) string {
		var sum uint64
		for _, r := range runs {
			sum += r.Counters
		}
		return fmt.Sprintf(", %d total", sum)
	}
	rep, err := Drive(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := "fake soak: 9 runs, 1 failures\n" +
		"  alpha      3 seeds,   1 failures, 33 total\n" +
		"  beta       3 seeds,   0 failures, 33 total\n" +
		"  gamma      3 seeds,   0 failures, 33 total\n"
	if got := rep.Summary(); got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
}
