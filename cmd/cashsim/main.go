// Command cashsim regenerates the tables and figures of the CASH paper
// (Zhou, Hoffmann, Wentzlaff — ISCA 2016) on the simulated CASH fabric.
//
// Usage:
//
//	cashsim [-scale f] [-out file] [-fault-rate r] [-fault-seed n]
//	        [-jobs n] [-sweep-par n] [-cell-timeout d] [-max-retries n]
//	        [-tier cycle|interval|sampled] [-sample-window n] [-sample-stride n]
//	        [-journal file] [-resume] [-v]
//	        [-stream s] [-queue-cap n] [-shed p] [-tail-target n]
//	        [-chips n] [-tenants n] [-kill n]
//	        [-cpuprofile file] [-memprofile file] <artifact>
//
// -tier selects the simulation fidelity of the oracle characterisation
// sweeps: cycle (the default — the authoritative tier every paper
// figure is produced on), interval (analytic per-phase model) or
// sampled (detailed windows + functional fast-forward; -sample-window
// and -sample-stride set its geometry in instructions). Fast tiers are
// held to the |IPC_fast − IPC_cycle| < 2% calibration contract
// (internal/isim/calib); the on-disk characterisation cache keys encode
// the tier, so runs at different tiers never poison each other.
//
// -calib-record runs the golden cycle-level characterisation of the
// calibration corpus and writes it to a file; -calib replays the fast
// tiers against a recorded golden file and enforces the 2% gate,
// printing the per-cell delta table on failure. Both run instead of an
// artifact; giving both in one invocation records then gates.
//
// where artifact is one of: fig1 fig2 table1 table2 overhead fig7
// table3 fig8 fig9 fig10 ablations reliability tail fleet all — or a
// daemon command (daemon-submit daemon-alloc daemon-spend daemon-health
// daemon-watch daemon-drain) that talks to a running cashd (see
// cmd/cashd) through the retrying client: -socket picks the daemon,
// -tenant/-cells/-tenant-seed describe a daemon-submit grid, -idem
// supplies its idempotency key (retried and duplicated submissions
// under the same key apply exactly once), and -drain-timeout bounds
// waits. -chaos additionally runs the cashd chaos soak after the fleet
// soak: -daemon-seeds scenarios, each with seeded wire faults and
// -daemon-kills kill -9 + restart cycles, asserting exactly-once tenant
// execution, nanodollar-exact spend reconciliation and digest-identical
// replay.
//
// The fleet artifact is the fleet-scale control-plane study: N
// simulated chips host M tenants of real CASH experiments under
// hierarchical budget envelopes, time-bounded leases, heartbeat failure
// detection and exactly-once re-execution. It reports cost,
// availability, re-execution counts and the time-to-recovery tail for a
// healthy baseline plus crash-K, partition and hang-storm failure
// patterns, and checks the control plane's guarantees (exactly-once
// landing, budget reconciliation, byte-identical replay) inline. -chips,
// -tenants and -kill size the fleet and the crash scenario.
//
// The tail artifact is the open-loop serving study beyond Fig 9's
// means: bounded-queue load shedding under bursty arrival streams, with
// full tail quantiles (p50/p95/p99/p999), SLO-violation minutes and the
// guard subsystem's tail-latency breaker. -stream picks the arrival
// shape (sine, diurnal, flash, bursts), -queue-cap the admission bound,
// -shed the overload policy (drop-newest or deadline) and -tail-target
// the SLO tail budget in cycles.
//
// Every (app, policy) cell of every artifact runs under a supervised
// executor: a panicking, erroring or hanging cell renders as
// FAILED(reason) in the report while the remaining cells complete.
// -jobs runs cells in parallel (the report stays byte-identical),
// -cell-timeout bounds each cell's wall-clock time, and -max-retries
// grants failing cells extra attempts with jittered backoff.
//
// The brute-force characterisation sweep inside each cell is itself
// parallel: -sweep-par sets its worker budget (0, the default, draws
// from a process-wide budget shared with -jobs so the two compose
// without oversubscribing the host; 1 forces a serial sweep). The
// report and the on-disk characterisation cache are byte-identical at
// every setting — parallelism only changes wall-clock time.
//
// Completed cells are appended to a crash-safe journal (-journal, or
// $CASH_JOURNAL, or the user cache directory; "-" disables it). After
// an interrupted run, -resume replays journal-completed cells instead
// of re-running them, producing a report byte-identical to an
// uninterrupted run at the same scale and seeds. Without -resume the
// journal is truncated and started fresh.
//
// The reliability artifact injects tile faults into a small fabric chip
// and reports how CASH and static provisioning degrade; -fault-rate
// (strikes per million cycles) and -fault-seed parameterise its
// reproducible schedule and print per-policy fault/remap/degradation
// counters.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU
// samples during execution; a heap snapshot at exit) for use with
// `go tool pprof`; the simulator's fast path was tuned against these.
//
// The brute-force characterisation (§V-C) is cached on disk
// ($CASH_ORACLE_CACHE or the user cache directory), so repeated
// invocations are fast. -scale shrinks workloads proportionally; the
// cache is keyed by workload content, so different scales do not
// collide.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"cash"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full evaluation)")
	out := flag.String("out", "", "write the report to a file instead of stdout")
	faultRate := flag.Float64("fault-rate", 0, "reliability study: strikes per million cycles (0 = default)")
	faultSeed := flag.Uint64("fault-seed", 0, "reliability study: fault-schedule seed (0 = default)")
	jobs := flag.Int("jobs", 1, "cells to run in parallel (report stays byte-identical)")
	sweepPar := flag.Int("sweep-par", 0, "oracle sweep workers per cell (0 = shared host budget, 1 = serial; results stay byte-identical)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock budget (0 = none)")
	maxRetries := flag.Int("max-retries", 0, "extra attempts for failing cells (jittered backoff)")
	journal := flag.String("journal", cash.DefaultJournalPath(), `crash-safe result journal ("-" disables)`)
	resume := flag.Bool("resume", false, "replay journal-completed cells from an interrupted run")
	verbose := flag.Bool("v", false, "print supervision diagnostics (retries, journal reuse) to stderr")
	stream := flag.String("stream", "", `tail study: arrival shape (sine diurnal flash bursts; "" = default)`)
	queueCap := flag.Int("queue-cap", 0, "tail study: bounded queue capacity (0 = default; must not be negative)")
	shed := flag.String("shed", "", `tail study: shed policy (drop-newest deadline; "" compares both; requires -stream)`)
	tailTarget := flag.Int64("tail-target", 0, "tail study: SLO tail budget in cycles (0 = the latency target)")
	chips := flag.Int("chips", 0, "fleet study: simulated chips (0 = default, 6)")
	tenants := flag.Int("tenants", 0, "fleet study: admitted tenants (0 = default, 6)")
	kill := flag.Int("kill", 0, "fleet study: chips the crash-K scenario kills (0 = default, 2)")
	chaosMode := flag.Bool("chaos", false, "run the chaos soaks (guardrail, fleet and cashd) instead of an artifact")
	chaosSeeds := flag.Int("chaos-seeds", 20, "chaos soak: seeds per scenario (must be positive)")
	chaosQuanta := flag.Int("chaos-quanta", 0, "chaos soak: control quanta per run (0 = default)")
	chaosGuard := flag.Bool("chaos-guard", true, "chaos soak: arm the guardrails (false = hazard baseline)")
	fleetSeeds := flag.Int("fleet-seeds", 5, "fleet chaos soak: seeds per scenario (0 skips the fleet soak)")
	fleetJournalDir := flag.String("fleet-journal-dir", "", "fleet chaos soak: journal every run under this directory")
	socket := flag.String("socket", "", "daemon subcommands: cashd unix socket (default $CASHD_SOCKET or the user cache directory)")
	idem := flag.String("idem", "", "daemon-submit: idempotency key (default derived from -tenant)")
	tenant := flag.String("tenant", "", "daemon-submit: tenant name")
	cells := flag.Int("cells", 0, "daemon-submit: cells in the tenant grid (0 = default, 4)")
	tenantSeed := flag.Uint64("tenant-seed", 0, "daemon-submit: tenant workload seed")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "daemon subcommands and soak: wait budget (must be positive)")
	daemonSeeds := flag.Int("daemon-seeds", 2, "chaos: daemon soak seeds (0 skips the daemon soak)")
	daemonKills := flag.Int("daemon-kills", 2, "chaos: daemon kill -9 + restart cycles per seed")
	tier := flag.String("tier", "cycle", "oracle sweep simulation tier: cycle, interval or sampled (figures stay authoritative on cycle)")
	sampleWindow := flag.Int64("sample-window", cash.DefaultSampleWindow, "sampled tier: detailed window length in instructions (must be positive and <= -sample-stride)")
	sampleStride := flag.Int64("sample-stride", cash.DefaultSampleStride, "sampled tier: window-start spacing in instructions (must be positive)")
	calibGate := flag.String("calib", "", "run the fast-tier calibration gate against golden runs recorded at this path (instead of an artifact)")
	calibRecord := flag.String("calib-record", "", "record the golden cycle-level calibration runs to this path (instead of an artifact)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to a file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to a file (go tool pprof)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cashsim [-scale f] [-out file] [-fault-rate r] [-fault-seed n] [-jobs n] [-sweep-par n] [-tier cycle|interval|sampled] [-sample-window n] [-sample-stride n] [-cell-timeout d] [-max-retries n] [-journal file] [-resume] [-v] [-cpuprofile file] [-memprofile file] <artifact>\n")
		fmt.Fprintf(os.Stderr, "       cashsim -chaos [-chaos-seeds n] [-chaos-quanta n] [-chaos-guard=false] [-daemon-seeds n] [-daemon-kills n] [-out file]\n")
		fmt.Fprintf(os.Stderr, "       cashsim -calib-record golden.gob | -calib golden.gob [-sweep-par n] [-out file]\n")
		fmt.Fprintf(os.Stderr, "       cashsim [-socket path] [-idem key] [-tenant name] [-cells n] [-drain-timeout d] <daemon-command>\n\n")
		fmt.Fprintf(os.Stderr, "artifacts: fig1 fig2 table1 table2 overhead fig7 table3 fig8 fig9 fig10 ablations reliability tail fleet all\n")
		fmt.Fprintf(os.Stderr, "daemon commands (talk to a running cashd): %s\n", daemonArtifacts)
		flag.PrintDefaults()
	}
	flag.Parse()
	calibMode := *calibGate != "" || *calibRecord != ""
	if *chaosMode || calibMode {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
	} else if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateFlags(flagValues{
		queueCap: *queueCap, stream: *stream, shed: *shed,
		chaos: *chaosMode, chaosSeeds: *chaosSeeds, fleetSeeds: *fleetSeeds,
		chips: *chips, tenants: *tenants, kill: *kill,
		socket: *socket, drainTimeout: *drainTimeout,
		daemonCmd:   !*chaosMode && flag.NArg() == 1 && isDaemonArtifact(flag.Arg(0)),
		daemonSeeds: *daemonSeeds, daemonKills: *daemonKills,
		tier: *tier, sampleWindow: *sampleWindow, sampleStride: *sampleStride,
		calibGate: *calibGate, calibRecord: *calibRecord,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "cashsim: %v\nrun 'cashsim -h' for usage\n", err)
		os.Exit(2)
	}

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashsim:", err)
		os.Exit(1)
	}
	// fail flushes the profiles before exiting, since os.Exit skips defers.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cashsim:", err)
		stopProf()
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}

	if calibMode {
		start := time.Now()
		if *calibRecord != "" {
			if err := cash.RecordCalibGolden(*calibRecord, *sweepPar); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "cashsim: calibration goldens recorded to %s in %v\n",
				*calibRecord, time.Since(start).Round(time.Millisecond))
		}
		if *calibGate != "" {
			if err := cash.RunCalibGate(w, *calibGate, *sweepPar); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "cashsim: calibration gate done in %v\n",
				time.Since(start).Round(time.Millisecond))
		}
		stopProf()
		return
	}

	if !*chaosMode && isDaemonArtifact(flag.Arg(0)) {
		err := runDaemonCommand(w, flag.Arg(0), daemonFlags{
			socket: *socket, idem: *idem, tenant: *tenant,
			cells: *cells, tenantSeed: *tenantSeed, drainTimeout: *drainTimeout,
		})
		if err != nil {
			fail(err)
		}
		stopProf()
		return
	}

	if *chaosMode {
		start := time.Now()
		// With the guardrails off the guardrail soak is the hazard
		// baseline: expected to fail, so it does not gate.
		soaks := []chaosSoak{{gate: *chaosGuard, run: func(string) (soakReport, error) {
			return cash.RunChaos(cash.ChaosOptions{Seeds: *chaosSeeds, Quanta: *chaosQuanta, Guardrails: *chaosGuard})
		}}}
		if *fleetSeeds > 0 {
			soaks = append(soaks, chaosSoak{gate: true, run: func(string) (soakReport, error) {
				return cash.RunFleetSoak(cash.FleetSoakOptions{Seeds: *fleetSeeds, JournalDir: *fleetJournalDir})
			}})
		}
		if *daemonSeeds > 0 {
			soaks = append(soaks, chaosSoak{gate: true, run: func(scratch string) (soakReport, error) {
				return cash.RunDaemonSoak(cash.DaemonSoakOptions{Seeds: *daemonSeeds, Kills: *daemonKills, Dir: scratch})
			}})
		}
		passed, err := runChaos(w, soaks)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "cashsim: chaos soak done in %v\n", time.Since(start).Round(time.Millisecond))
		stopProf()
		if !passed {
			os.Exit(1)
		}
		return
	}

	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	start := time.Now()
	opts := cash.ReproduceOptions{
		Scale: *scale, FaultRate: *faultRate, FaultSeed: *faultSeed,
		Jobs: *jobs, SweepPar: *sweepPar, CellTimeout: *cellTimeout, MaxRetries: *maxRetries,
		JournalPath: *journal, Resume: *resume, Log: log,
		Stream: *stream, QueueCap: *queueCap, Shed: *shed, TailTarget: *tailTarget,
		FleetChips: *chips, FleetTenants: *tenants, FleetKill: *kill,
		Tier: *tier, SampleWindow: *sampleWindow, SampleStride: *sampleStride,
	}
	if err := cash.ReproduceWith(w, flag.Arg(0), opts); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "cashsim: %s done in %v\n", flag.Arg(0), time.Since(start).Round(time.Millisecond))
	stopProf()
}

// soakReport is what -chaos prints and gates on from each soak.
type soakReport interface {
	Text() string
	Passed() bool
}

// chaosSoak is one soak -chaos runs. run gets a scratch directory that
// outlives the call; gate says whether the soak's failures fail -chaos.
type chaosSoak struct {
	run  func(scratch string) (soakReport, error)
	gate bool
}

// runChaos runs every soak in order, printing each report to w, and
// reports whether every gated soak passed. The soaks' scratch directory
// is removed on every path, so main may os.Exit on the result.
func runChaos(w io.Writer, soaks []chaosSoak) (bool, error) {
	scratch, err := os.MkdirTemp("", "cashd-soak-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	passed := true
	for _, s := range soaks {
		rep, err := s.run(scratch)
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, rep.Text())
		passed = passed && (!s.gate || rep.Passed())
	}
	return passed, nil
}

// flagValues collects the parsed flags that validateFlags cross-checks,
// so the rules are testable without running main.
type flagValues struct {
	queueCap   int
	stream     string
	shed       string
	chaos      bool
	chaosSeeds int
	fleetSeeds int
	chips      int
	tenants    int
	kill       int

	socket       string
	drainTimeout time.Duration
	daemonCmd    bool
	daemonSeeds  int
	daemonKills  int

	tier         string
	sampleWindow int64
	sampleStride int64
	calibGate    string
	calibRecord  string
}

// validateFlags rejects flag combinations that would otherwise fail
// deep inside a study (or silently do nothing), so mistakes surface
// before any simulation work starts.
func validateFlags(v flagValues) error {
	if v.queueCap < 0 {
		return fmt.Errorf("-queue-cap %d is negative; the serving queue needs a non-negative capacity (0 = the study default)", v.queueCap)
	}
	if v.shed != "" && v.stream == "" {
		return fmt.Errorf("-shed %q requires -stream: a shed policy is meaningless without an arrival shape", v.shed)
	}
	if v.chaos && v.chaosSeeds <= 0 {
		return fmt.Errorf("-chaos needs -chaos-seeds >= 1, got %d", v.chaosSeeds)
	}
	if v.fleetSeeds < 0 {
		return fmt.Errorf("-fleet-seeds %d is negative (0 skips the fleet soak)", v.fleetSeeds)
	}
	if v.chips < 0 || v.tenants < 0 || v.kill < 0 {
		return fmt.Errorf("-chips/-tenants/-kill must be non-negative, got %d/%d/%d", v.chips, v.tenants, v.kill)
	}
	if v.chips > 0 && v.kill >= v.chips {
		return fmt.Errorf("-kill %d must be smaller than -chips %d: killing the whole fleet leaves no survivors to re-place work on", v.kill, v.chips)
	}
	if v.socket != "" {
		if dir := filepath.Dir(v.socket); dir != "." {
			if _, err := os.Stat(dir); err != nil {
				return fmt.Errorf("-socket %s: parent directory %s does not exist (is cashd running, and where?)", v.socket, dir)
			}
		}
	}
	if v.daemonSeeds < 0 || v.daemonKills < 0 {
		return fmt.Errorf("-daemon-seeds/-daemon-kills must be non-negative, got %d/%d", v.daemonSeeds, v.daemonKills)
	}
	if (v.daemonCmd || (v.chaos && v.daemonSeeds > 0)) && v.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v must be positive: daemon commands and the daemon soak wait on it", v.drainTimeout)
	}
	if v.chaos && v.daemonSeeds > 0 && v.kill > 0 {
		return fmt.Errorf("-kill sizes the fleet study's crash scenario, not the daemon soak; use -daemon-kills for kill+restart cycles during -chaos")
	}
	if v.tier != "" {
		if err := cash.ValidateTier(v.tier); err != nil {
			return err
		}
	}
	if v.tier == "sampled" {
		// The sampled tier is the only reader of the window geometry; a
		// bad value elsewhere must not block a run that never uses it.
		if v.sampleWindow <= 0 || v.sampleStride <= 0 {
			return fmt.Errorf("-sample-window/-sample-stride must be positive instruction counts, got %d/%d", v.sampleWindow, v.sampleStride)
		}
		if v.sampleWindow > v.sampleStride {
			return fmt.Errorf("-sample-window %d exceeds -sample-stride %d: windows would overlap; the stride is the spacing between window starts", v.sampleWindow, v.sampleStride)
		}
	}
	if v.calibGate != "" && v.calibRecord == "" {
		if _, err := os.Stat(v.calibGate); err != nil {
			return fmt.Errorf("-calib %s: golden runs not present (%v); record them first with -calib-record %s", v.calibGate, err, v.calibGate)
		}
	}
	return nil
}

// startProfiles enables the requested pprof outputs. The returned stop
// function flushes them and must run on every exit path: os.Exit skips
// deferred calls, so main threads it through explicitly.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashsim: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cashsim: memprofile:", err)
		}
	}, nil
}
