// Package soak is the one driver behind the guardrail
// (internal/guard/chaos), fleet (internal/fleet) and cashd
// (internal/daemon/soak) chaos soaks. A soak is a scenario table plus
// one run function; the driver owns scenario selection, the
// (scenario × seed) grid, bounded parallelism with results in canonical
// order, the panic barrier, the run-then-replay digest comparison and
// the per-scenario summary.
package soak

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"cash/internal/par"
)

// Scenario is one entry of a soak's scenario table.
type Scenario interface{ Name() string }

// Outcome is what one execution of a run reports.
type Outcome[C any] struct {
	// Digest fingerprints the observable result; the replay must
	// reproduce it exactly.
	Digest     string
	Violations []string
	// Counters are the soak's own evidence (guard trips, kills, ...).
	Counters C
}

// Run is one (scenario, seed) cell of a completed soak: the first
// execution's outcome, with the replay's verdict folded in.
type Run[C any] struct {
	Scenario string
	Seed     uint64
	Outcome[C]
	// ReplayIdentical: the replay reproduced Digest (and panicked, or
	// not, alike). Panicked: the first execution panicked.
	ReplayIdentical bool
	Panicked        bool
}

// Spec describes one soak to Drive.
type Spec[S Scenario, C any] struct {
	// Name prefixes errors; Title heads the summary.
	Name, Title string
	// Scenarios is the soak's full table in canonical order; Select
	// restricts a run to the named entries (nil = all).
	Scenarios []S
	Select    []string
	// Seeds is how many seeds each scenario runs under; Seed derives the
	// i'th seed.
	Seeds int
	Seed  func(i int) uint64
	// Pool bounds how many runs execute concurrently (nil = the
	// process-wide shared budget).
	Pool *par.Pool
	// Run executes one scenario at one seed, twice: replay false, then
	// true. Each soak decides what its replay varies (nothing, the
	// journal, the wire faults); the digest must not depend on it.
	Run func(s S, seed uint64, replay bool) Outcome[C]
	// NameWidth pads scenario names in the summary; Columns (required)
	// renders the soak's own totals over one scenario's runs
	// (", 5 guard trips").
	NameWidth int
	Columns   func(runs []Run[C]) string
}

// Report is a completed soak: every (scenario, seed) run in canonical
// grid order, and how many broke an invariant (a panic and a replay
// divergence count too).
type Report[C any] struct {
	Scenarios []string
	Runs      []Run[C]
	Failures  int

	title     string
	nameWidth int
	columns   func([]Run[C]) string
}

// Drive runs the soak and returns its report.
func Drive[S Scenario, C any](sp Spec[S, C]) (Report[C], error) {
	if sp.Seeds < 0 {
		return Report[C]{}, fmt.Errorf("%s: negative soak seeds %d", sp.Name, sp.Seeds)
	}
	selected := sp.Scenarios
	if len(sp.Select) > 0 {
		selected = nil
		for _, want := range sp.Select {
			i := slices.IndexFunc(sp.Scenarios, func(s S) bool { return s.Name() == want })
			if i < 0 {
				return Report[C]{}, fmt.Errorf("%s: unknown scenario %q (have %v)", sp.Name, want, Names(sp.Scenarios))
			}
			selected = append(selected, sp.Scenarios[i])
		}
	}
	rep := Report[C]{Scenarios: Names(selected), title: sp.Title, nameWidth: sp.NameWidth, columns: sp.Columns}
	// The grid is scenario-major. Runs are deterministic and
	// panic-barriered, so they execute in any order; each writes its own
	// slot.
	rep.Runs = make([]Run[C], len(selected)*sp.Seeds)
	par.Resolve(sp.Pool).ForEach(len(rep.Runs), func(i int) {
		rep.Runs[i] = sp.runTwice(selected[i/sp.Seeds], sp.Seed(i%sp.Seeds))
	})
	for _, r := range rep.Runs {
		if len(r.Violations) > 0 {
			rep.Failures++
		}
	}
	return rep, nil
}

// runTwice executes one (scenario, seed) and its replay and compares
// them. Violations only the replay hit are kept, marked as such.
func (sp Spec[S, C]) runTwice(s S, seed uint64) Run[C] {
	first, panicked := sp.guarded(s, seed, false)
	replay, replayPanicked := sp.guarded(s, seed, true)
	r := Run[C]{Scenario: s.Name(), Seed: seed, Outcome: first, Panicked: panicked}
	r.ReplayIdentical = first.Digest == replay.Digest && panicked == replayPanicked
	if !r.ReplayIdentical {
		r.Violations = append(r.Violations,
			fmt.Sprintf("replay diverged: digest %s vs %s", first.Digest, replay.Digest))
	}
	for _, v := range replay.Violations {
		if !slices.Contains(first.Violations, v) {
			r.Violations = append(r.Violations, "replay: "+v)
		}
	}
	return r
}

// guarded runs one execution under a panic barrier: a panic becomes a
// violation instead of taking the soak down.
func (sp Spec[S, C]) guarded(s S, seed uint64, replay bool) (out Outcome[C], panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			out = Outcome[C]{Violations: []string{fmt.Sprintf("panic: %v", p)}}
			panicked = true
		}
	}()
	return sp.Run(s, seed, replay), false
}

// Passed reports whether every run upheld every invariant.
func (r Report[C]) Passed() bool { return r.Failures == 0 }

// Summary renders the soak's headline and one line per scenario, in
// name order.
func (r Report[C]) Summary() string {
	byScen := map[string][]Run[C]{}
	fails := map[string]int{}
	for _, run := range r.Runs {
		byScen[run.Scenario] = append(byScen[run.Scenario], run)
		if len(run.Violations) > 0 {
			fails[run.Scenario]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s%d runs, %d failures\n", r.title, len(r.Runs), r.Failures)
	for _, n := range slices.Sorted(maps.Keys(byScen)) {
		fmt.Fprintf(&b, "  %-*s %3d seeds, %3d failures%s\n", r.nameWidth, n, len(byScen[n]), fails[n], r.columns(byScen[n]))
	}
	return b.String()
}

// Text is the summary followed by one FAIL line per violation.
func (r Report[C]) Text() string {
	var b strings.Builder
	b.WriteString(r.Summary())
	for _, run := range r.Runs {
		for _, v := range run.Violations {
			fmt.Fprintf(&b, "  FAIL %s seed %d: %s\n", run.Scenario, run.Seed, v)
		}
	}
	return b.String()
}

// Names lists a scenario table's names in order.
func Names[S Scenario](table []S) []string {
	out := make([]string, len(table))
	for i, s := range table {
		out[i] = s.Name()
	}
	return out
}
