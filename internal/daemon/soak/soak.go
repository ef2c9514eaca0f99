// Package soak is the cashd chaos soak: it drives a fault-injected
// daemon through repeated kill -9 + restart cycles with the retrying
// client and audits the wreckage — every cell executed exactly once,
// every nanodollar reconciled, and a clean replay of the same seed
// reaching the identical state digest (checked by the shared driver in
// internal/soak).
package soak

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	"cash/internal/fault"
	"cash/internal/fleet"
	"cash/internal/par"
	driver "cash/internal/soak"
)

// Options configure the daemon chaos soak: for each seed, a daemon
// with a fault-injected wire is started, tenants are submitted through
// the retrying client, the daemon is killed and restarted on the same
// journal Kills times mid-execution, and the survivors are audited.
type Options struct {
	// Seeds is the number of seeded scenarios (default 3).
	Seeds int
	// Tenants and CellsPerTenant size each scenario (defaults 6, 4).
	Tenants, CellsPerTenant int
	// Kills is the number of kill + restart cycles per scenario
	// (default 2).
	Kills int
	// Dir holds sockets and journals (required; a test TempDir).
	Dir string
	// Epoch overrides the daemon tick interval (default 2ms — fast
	// enough to finish, slow enough that kills land mid-execution).
	Epoch time.Duration
	// Log, when non-nil, receives the daemons' progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 3
	}
	if o.Tenants == 0 {
		o.Tenants = 6
	}
	if o.CellsPerTenant == 0 {
		o.CellsPerTenant = 4
	}
	if o.Kills == 0 {
		o.Kills = 2
	}
	if o.Epoch == 0 {
		o.Epoch = 2 * time.Millisecond
	}
	return o
}

// Counters are one seed's evidence: the chaos run's kills, the cells
// it landed exactly once and the nanodollars it reconciled.
type Counters struct {
	Kills         int
	CellsLanded   int
	ConsumedNanos int64
}

// Report is a completed daemon soak; each run's Digest is the daemon's
// final state digest.
type Report = driver.Report[Counters]

// scenario is the soak's one scenario: seeded wire faults plus Kills
// kill + restart cycles.
type scenario struct{}

func (scenario) Name() string { return "kill-restart" }

// Run executes the daemon chaos soak. Each seed runs under chaos, then
// replays on a fresh journal with a clean wire and no kills: the digest
// is a pure function of what was submitted, so however violently the
// chaos run got there, the two must agree bit for bit. Seeds run one at
// a time; a bad seed is reported and the soak moves on.
func Run(opts Options) (Report, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return Report{}, fmt.Errorf("soak: needs a scratch directory")
	}
	if opts.Kills < 0 || opts.Tenants <= 0 || opts.CellsPerTenant <= 0 {
		return Report{}, fmt.Errorf("soak: invalid shape %+v", opts)
	}
	return driver.Drive(driver.Spec[scenario, Counters]{
		Name:      "daemon soak",
		Title:     "daemon soak: ",
		Scenarios: []scenario{{}},
		Seeds:     opts.Seeds,
		Seed:      func(i int) uint64 { return uint64(1000 + 17*i) },
		Pool:      par.Serial(),
		Run: func(_ scenario, seed uint64, replay bool) (out driver.Outcome[Counters]) {
			var err error
			if out.Counters, out.Digest, err = runScenario(opts, seed, !replay); err != nil {
				out.Violations = []string{err.Error()}
			}
			return out
		},
		NameWidth: 14,
		Columns: func(runs []driver.Run[Counters]) string {
			var sum Counters
			for _, r := range runs {
				sum.Kills += r.Counters.Kills
				sum.CellsLanded += r.Counters.CellsLanded
				sum.ConsumedNanos += r.Counters.ConsumedNanos
			}
			return fmt.Sprintf(", %d kills, %d cells exactly-once, %d nanos reconciled",
				sum.Kills, sum.CellsLanded, sum.ConsumedNanos)
		},
	})
}

func dial(socket string, seed uint64) (*client.Client, error) {
	return client.Dial(client.Options{
		Socket:      socket,
		Seed:        seed,
		Timeout:     2 * time.Second,
		MaxAttempts: 12,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
}

// runScenario runs one seeded scenario to completion and returns its
// counters and final digest. With chaos true the wire injects faults
// and the daemon is killed and restarted opts.Kills times; with chaos
// false the run is clean (the replay baseline).
func runScenario(opts Options, seed uint64, chaos bool) (c Counters, digest string, err error) {
	suffix := "replay"
	if chaos {
		suffix = "chaos"
	}
	socket := filepath.Join(opts.Dir, fmt.Sprintf("cashd-%d-%s.sock", seed, suffix))
	journal := filepath.Join(opts.Dir, fmt.Sprintf("cashd-%d-%s.jsonl", seed, suffix))
	dopts := daemon.Options{
		Socket:       socket,
		Journal:      journal,
		Epoch:        opts.Epoch,
		QueueCap:     16,
		DrainTimeout: 30 * time.Second,
		Log:          opts.Log,
	}
	if chaos {
		dopts.WireFaults = fault.DefaultWireSpec(seed)
	}
	srv, err := daemon.Start(dopts)
	if err != nil {
		return c, "", err
	}
	defer func() { srv.Kill() }() // no-op after a clean drain

	cl, err := dial(socket, seed)
	if err != nil {
		return c, "", err
	}
	defer cl.Close()

	// Submit every tenant through the retrying client; the idempotency
	// key makes retries (and wire-fault duplicates) exactly-once.
	specs := make([]daemon.TenantSpec, opts.Tenants)
	var want fleet.Nanos
	for t := 0; t < opts.Tenants; t++ {
		specs[t] = daemon.TenantSpec{
			Name:  fmt.Sprintf("tenant-%d", t),
			Cells: opts.CellsPerTenant,
			Seed:  seed + uint64(t)*101,
		}
		want += daemon.ExpectedSpend(specs[t], cost.Model{})
		idem := fmt.Sprintf("seed-%d-tenant-%d", seed, t)
		if _, err := cl.Submit(idem, specs[t]); err != nil {
			return c, "", fmt.Errorf("submit %s: %w", specs[t].Name, err)
		}
		// Duplicate submit under the same key must ack as a replay, not
		// double-admit.
		ack, err := cl.Submit(idem, specs[t])
		if err != nil {
			return c, "", fmt.Errorf("duplicate submit %s: %w", specs[t].Name, err)
		}
		if !ack.Resubmitted {
			return c, "", fmt.Errorf("duplicate submit %s not marked resubmitted", specs[t].Name)
		}
	}

	// A watcher streams epochs in the background, reconnecting across
	// kills and fault-severed connections — proving the stream never
	// wedges a client. It stops on the drain's Final event or when the
	// scenario signals it to.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			wcl, werr := dial(socket, seed^0xabcd)
			if werr != nil {
				return
			}
			werr = wcl.Watch(2*time.Second, func(ev daemon.Epoch) bool { return !ev.Final })
			wcl.Close()
			if werr == nil {
				return // Final seen or handler stopped
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stop)

	totalCells := opts.Tenants * opts.CellsPerTenant
	if chaos {
		for k := 0; k < opts.Kills; k++ {
			// Let some cells land, then kill mid-execution.
			if _, err := waitProgress(cl, (k+1)*totalCells/(opts.Kills+2)); err != nil {
				return c, "", fmt.Errorf("pre-kill %d: %w", k+1, err)
			}
			srv.Kill()
			c.Kills++
			srv, err = daemon.Start(dopts)
			if err != nil {
				return c, "", fmt.Errorf("restart %d: %w", k+1, err)
			}
			// Resubmitting after a crash must still dedup: the journal,
			// not process memory, is the source of truth.
			idem := fmt.Sprintf("seed-%d-tenant-%d", seed, 0)
			ack, aerr := cl.Submit(idem, specs[0])
			if aerr != nil {
				return c, "", fmt.Errorf("post-restart resubmit: %w", aerr)
			}
			if !ack.Resubmitted {
				return c, "", fmt.Errorf("restart %d lost submit %s", k+1, idem)
			}
		}
	}

	// Wait for every cell to land, then audit.
	health, err := waitProgress(cl, totalCells)
	if err != nil {
		return c, "", err
	}
	if health.CellsLanded != totalCells || health.CellsTotal != totalCells {
		return c, "", fmt.Errorf("landed %d/%d of %d cells",
			health.CellsLanded, health.CellsTotal, totalCells)
	}
	if health.Tenants != opts.Tenants {
		return c, "", fmt.Errorf("admitted %d tenants, want %d (duplicate admission?)",
			health.Tenants, opts.Tenants)
	}

	// Spend reconciliation to the nanodollar: each tenant consumed
	// exactly its computed price, nothing outstanding, books balanced.
	spend, err := cl.Spend()
	if err != nil {
		return c, "", err
	}
	var total fleet.Nanos
	for i, ts := range spend.Tenants {
		exp := daemon.ExpectedSpend(specs[i], cost.Model{})
		if fleet.Nanos(ts.Consumed) != exp {
			return c, "", fmt.Errorf("tenant %s consumed %d nanos, want %d", ts.Name, ts.Consumed, exp)
		}
		if ts.Outstanding != 0 {
			return c, "", fmt.Errorf("tenant %s has %d nanos outstanding after completion", ts.Name, ts.Outstanding)
		}
		if ts.Granted != ts.Consumed+ts.Refunded {
			return c, "", fmt.Errorf("tenant %s books unbalanced: granted %d != consumed %d + refunded %d",
				ts.Name, ts.Granted, ts.Consumed, ts.Refunded)
		}
		total += fleet.Nanos(ts.Consumed)
	}
	if total != want || fleet.Nanos(spend.RootConsumed) != want {
		return c, "", fmt.Errorf("root consumed %d nanos, want %d", spend.RootConsumed, want)
	}
	// The reported spend is the closed-form price on both sides of the
	// replay, so chaos and clean runs agree on it too.
	if fleet.Nanos(health.ConsumedNanos) != want {
		return c, "", fmt.Errorf("health reports %d nanos consumed, want %d", health.ConsumedNanos, want)
	}

	// Graceful drain: the daemon settles, compacts and exits clean.
	if err := cl.Drain(); err != nil {
		return c, "", fmt.Errorf("drain: %w", err)
	}
	if err := srv.Wait(); err != nil {
		return c, "", fmt.Errorf("daemon exited dirty: %w", err)
	}
	c.CellsLanded, c.ConsumedNanos = health.CellsLanded, health.ConsumedNanos
	return c, health.Digest, nil
}

// waitProgress polls health until at least target cells landed,
// tolerating transient failures while a kill/restart is in flight.
func waitProgress(cl *client.Client, target int) (daemon.HealthResult, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.CellsLanded >= target {
			return h, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return daemon.HealthResult{}, fmt.Errorf("health poll: %w", err)
			}
			return h, fmt.Errorf("stalled at %d/%d cells landed", h.CellsLanded, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
