package fleet

import (
	"fmt"
	"path/filepath"

	"cash/internal/fault"
	"cash/internal/par"
	"cash/internal/soak"
	"cash/internal/supervise"
)

// The fleet chaos soak kills K of N chips mid-run (plus hang,
// partition and mixed-fault variants) across many seeds and asserts
// the control plane's contract every time:
//
//   - complete: every tenant cell eventually lands,
//   - exactly once: each cell lands once in the ledger (and journal),
//     however many orphaned or duplicate deliveries the failures made,
//   - reconciled: granted = consumed + refunded at every envelope,
//   - byte-identical replay: each (scenario, seed) runs twice and the
//     two digests must agree bit for bit (internal/soak drives the
//     loop and checks the replay).

// SoakOptions configure a fleet soak. Zero values select the defaults
// noted on each field.
type SoakOptions struct {
	// Seeds is how many seeds each scenario runs under (default 5).
	Seeds int
	// Chips, SlotsPerChip, Tenants and CellsPerTenant size each run
	// (defaults 6, 2, 10, 4).
	Chips, SlotsPerChip     int
	Tenants, CellsPerTenant int
	// Kill is how many chips the kill-k scenario crashes mid-run
	// (default 2; clamped to Chips-1).
	Kill int
	// Scenarios restricts the soak to the named scenarios (nil = all).
	Scenarios []string
	// Pool bounds how many (scenario, seed) runs execute concurrently;
	// nil draws from the process-wide shared budget. Results land in
	// canonical grid order, so the report is identical at any setting.
	Pool *par.Pool
	// JournalDir, when non-empty, journals every run to a file under it
	// and asserts journal completeness too (one final record per cell).
	JournalDir string
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	if o.Chips == 0 {
		o.Chips = 6
	}
	if o.SlotsPerChip == 0 {
		o.SlotsPerChip = 2
	}
	if o.Tenants == 0 {
		o.Tenants = 10
	}
	if o.CellsPerTenant == 0 {
		o.CellsPerTenant = 4
	}
	if o.Kill == 0 {
		o.Kill = 2
	}
	return o
}

// SoakReport is a completed fleet soak; each run's counters are the
// first execution's full Result.
type SoakReport = soak.Report[Result]

// soakScenario builds a fault schedule for one run. killTick is chosen
// mid-run: with ~Tenants×CellsPerTenant×meanDuration serial ticks of
// work over Chips×Slots slots, tick 6 lands well inside the first wave
// of leases.
type soakScenario struct {
	name  string
	sched func(o SoakOptions, seed uint64) fault.ChipSchedule
}

// Name identifies the scenario in reports and SoakOptions.Scenarios.
func (s soakScenario) Name() string { return s.name }

// SoakScenarios returns the names of all built-in fleet scenarios.
func SoakScenarios() []string { return soak.Names(soakScenarios) }

var soakScenarios = []soakScenario{
	{name: "kill-k", sched: func(o SoakOptions, seed uint64) fault.ChipSchedule {
		// Two waves of kills: K chips at tick 6 and one more at tick 14,
		// so recovery itself is also hit by a failure.
		s := fault.KillK(o.Chips, o.Kill, 6)
		s.Events = append(s.Events, fault.ChipEvent{
			Tick: 14, Chip: (o.Chips - 1) - int(seed%uint64(o.Chips)), Kind: fault.ChipCrash, Duration: 25,
		})
		return s
	}},
	{name: "hang", sched: func(o SoakOptions, seed uint64) fault.ChipSchedule {
		// Hangs long enough for the detector to confirm death, so the
		// frozen attempts come back as orphans after re-placement.
		var s fault.ChipSchedule
		for i := 0; i < o.Chips; i += 2 {
			s.Events = append(s.Events, fault.ChipEvent{
				Tick: 5 + int64(i), Chip: i, Kind: fault.ChipHang, Duration: 18 + int64(seed%5),
			})
		}
		return s
	}},
	{name: "hbloss", sched: func(o SoakOptions, seed uint64) fault.ChipSchedule {
		// Partitions: chips keep executing while silent, manufacturing
		// false suspicions, false deaths, orphan and duplicate deliveries.
		var s fault.ChipSchedule
		for i := 1; i < o.Chips; i += 2 {
			s.Events = append(s.Events, fault.ChipEvent{
				Tick: 4 + int64(i), Chip: i, Kind: fault.ChipHBLoss, Duration: 16 + int64(seed%4),
			})
		}
		return s
	}},
	{name: "mixed", sched: func(o SoakOptions, seed uint64) fault.ChipSchedule {
		s, err := fault.GenerateChipFaults(fault.ChipSpec{
			Chips: o.Chips, Horizon: 60, Rate: 2.5, Seed: seed,
		})
		if err != nil {
			panic(err) // unreachable: the spec is valid by construction
		}
		return s
	}},
}

// AggressiveDetector is the soak's aggressive failure-detector tuning: a chip
// is suspected after 3 silent ticks and confirmed dead one recheck
// later, so 16-tick outages are reliably (mis)classified as deaths.
var AggressiveDetector = DetectorConfig{
	Suspect:     3 * tickLen,
	BackoffBase: 1 * tickLen,
	BackoffCap:  4 * tickLen,
	Confirm:     2,
}

// Soak executes the fleet soak.
func Soak(opts SoakOptions) (SoakReport, error) {
	opts = opts.withDefaults()
	return soak.Drive(soak.Spec[soakScenario, Result]{
		Name:      "fleet",
		Title:     "fleet soak: ",
		Scenarios: soakScenarios,
		Select:    opts.Scenarios,
		Seeds:     opts.Seeds,
		Seed:      func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 },
		Pool:      opts.Pool,
		Run:       opts.soakOne,
		NameWidth: 10,
		Columns: func(runs []soak.Run[Result]) string {
			var reexec, orphan int64
			for _, r := range runs {
				reexec += r.Counters.Stats.ReExecutions
				orphan += r.Counters.Stats.OrphanDeliveries
			}
			return fmt.Sprintf(", %4d re-executions, %4d orphan deliveries", reexec, orphan)
		},
	})
}

// soakOne runs one (scenario, seed) and checks every invariant. The
// replay runs without the journal: the journal's dedup state is
// external input, and the digest must not depend on it.
func (o SoakOptions) soakOne(s soakScenario, seed uint64, replay bool) (out soak.Outcome[Result]) {
	run := Options{
		Chips:        o.Chips,
		SlotsPerChip: o.SlotsPerChip,
		// An aggressive detector (confirmation after ~4 ticks of
		// silence) relative to 3-8 tick cells, so partitions and hangs
		// are regularly mistaken for deaths and the orphan/duplicate
		// paths get real traffic.
		Detector: AggressiveDetector,
		Work: SyntheticWork{
			TenantCount:    o.Tenants,
			CellsPerTenant: o.CellsPerTenant,
			Seed:           seed,
		},
		Faults:   s.sched(o, seed),
		MaxTicks: 2_000,
	}
	if o.JournalDir != "" && !replay {
		path := filepath.Join(o.JournalDir, fmt.Sprintf("fleet-%s-%d.jsonl", s.name, seed))
		meta := fmt.Sprintf("fleet-soak v1 %s seed=%d chips=%d", s.name, seed, o.Chips)
		j, err := supervise.OpenJournal(path, meta, false)
		if err != nil {
			out.Violations = append(out.Violations, fmt.Sprintf("journal open: %v", err))
			return out
		}
		defer j.Close()
		run.Journal = j
	}

	res, err := Run(run)
	if err != nil {
		out.Violations = append(out.Violations, fmt.Sprintf("run: %v", err))
		return out
	}
	out.Digest = fmt.Sprintf("%016x", res.Digest)
	out.Counters = res
	if !res.Complete {
		out.Violations = append(out.Violations,
			fmt.Sprintf("incomplete: %d/%d cells landed in %d ticks", res.Landed, res.Cells, res.Stats.Ticks))
	}
	if !res.ExactlyOnce {
		out.Violations = append(out.Violations, "exactly-once violated: a cell landed != 1 times")
	}
	if !res.Reconciled {
		out.Violations = append(out.Violations, "budget unreconciled: granted != consumed + refunded")
	}
	if run.Journal != nil {
		if got := run.Journal.Completed(); got != res.Cells {
			out.Violations = append(out.Violations,
				fmt.Sprintf("journal holds %d final records, want %d", got, res.Cells))
		}
	}
	return out
}
