// Package cash is a from-scratch reproduction of "CASH: Supporting IaaS
// Customers with a Sub-core Configurable Architecture" (Zhou, Hoffmann,
// Wentzlaff — ISCA 2016).
//
// CASH co-designs a sub-core configurable hardware architecture — a
// homogeneous fabric of Slices (simple out-of-order mini-cores) and L2
// cache banks that compose at runtime into virtual cores — with a
// cost-optimizing runtime that combines a deadbeat controller, a
// Kalman-filter phase estimator and a Q-learning configuration
// optimizer to meet a QoS target at minimal rental cost.
//
// This package is the public facade over the full system:
//
//   - NewSimulator builds SSim, the cycle-level timing simulator of the
//     CASH fabric (§V-A), for any virtual-core configuration.
//   - NewRuntime builds the CASH runtime (§IV, Algorithm 1); NewConvex,
//     RaceToIdle and Static provide the paper's baseline allocators.
//   - Run executes an application under an allocator on the simulated
//     fabric, with reconfiguration overheads, rental billing and QoS
//     accounting (§VI).
//   - NewOracle characterises applications over the whole configuration
//     space and derives optimal allocations (§V-C).
//   - Benchmarks returns the paper's 13-application workload suite.
//
// See examples/quickstart for the smallest end-to-end program, and
// cmd/cashsim to regenerate every table and figure of the paper.
package cash

import (
	"fmt"
	"io"
	"math"
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	daemonsoak "cash/internal/daemon/soak"
	"cash/internal/experiment"
	"cash/internal/fault"
	"cash/internal/figs"
	"cash/internal/fleet"
	"cash/internal/guard"
	"cash/internal/guard/chaos"
	"cash/internal/isim"
	"cash/internal/isim/calib"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/soak"
	"cash/internal/ssim"
	"cash/internal/supervise"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Core architecture types.
type (
	// Config is one virtual-core configuration: a number of Slices and
	// an L2 size (§II-A: 1–8 Slices × 64KB–8MB).
	Config = vcore.Config
	// SliceConfig is the Slice microarchitecture (Table I).
	SliceConfig = slice.Config
	// Simulator is SSim, the cycle-level timing simulator (§V-A).
	Simulator = ssim.Sim
	// SteeringPolicy selects how instructions spread across Slices.
	SteeringPolicy = ssim.SteeringPolicy
)

// Steering policies.
const (
	SteerEarliest   = ssim.SteerEarliest
	SteerRoundRobin = ssim.SteerRoundRobin
)

// Workload types.
type (
	// App is a benchmark application: a sequence of phases.
	App = workload.App
	// Phase is one steady-state region of an application.
	Phase = workload.Phase
	// RequestStream is an open-loop arrival process (Fig 9).
	RequestStream = workload.RequestStream
	// Gen deterministically produces an application's dynamic
	// instruction stream; it feeds Simulator.Run directly.
	Gen = workload.Gen
)

// NewGen returns a deterministic instruction generator for an
// application; the same (app, seed) pair always yields the same stream.
func NewGen(app App, seed uint64) *Gen { return workload.NewGen(app, seed) }

// Runtime and allocator types.
type (
	// Runtime is the CASH runtime (§IV).
	Runtime = cashrt.Runtime
	// RuntimeOptions tune the runtime; the zero value is the paper's
	// design.
	RuntimeOptions = cashrt.Options
	// Allocator is a resource-allocation policy.
	Allocator = alloc.Allocator
	// RaceToIdle is the worst-case-provisioned baseline (§II-B).
	RaceToIdle = alloc.RaceToIdle
	// Static always uses one fixed configuration.
	Static = alloc.Static
	// PricingModel prices configurations (§VI-B).
	PricingModel = cost.Model
)

// Experiment types.
type (
	// RunOptions configure an experiment run.
	RunOptions = experiment.Opts
	// Result is a completed experiment with time series and totals.
	Result = experiment.Result
	// Oracle is the brute-force characterisation database (§V-C).
	Oracle = oracle.DB
)

// Fault-injection types (robustness study). Set RunOptions.Faults to a
// schedule to host a run on a fabric chip with injected tile faults;
// Result.FaultStats reports what happened.
type (
	// FaultSchedule is a deterministic list of tile fault events.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled tile strike (optionally transient).
	FaultEvent = fault.Event
	// FaultSpec parameterises random schedule generation.
	FaultSpec = fault.Spec
	// FaultStats summarises injected-fault activity over a run.
	FaultStats = experiment.FaultStats
)

// GenerateFaults draws a random, reproducible fault schedule: the same
// spec always yields the same schedule.
func GenerateFaults(spec FaultSpec) (FaultSchedule, error) { return fault.Generate(spec) }

// Guardrail types (control-loop robustness). Set RuntimeOptions.
// Guardrails to arm the watchdogs; Result.Guard reports their activity.
type (
	// GuardConfig tunes the guardrail thresholds (zero value = defaults).
	GuardConfig = guard.Config
	// GuardStats counts guardrail trips and recoveries over a run.
	GuardStats = guard.Stats
	// ChaosOptions configure the chaos soak harness.
	ChaosOptions = chaos.Options
	// SoakReport is a completed chaos soak (guardrail, fleet or cashd;
	// all three share one driver): every (scenario, seed) run in
	// canonical order with its digest, violations, replay verdict and
	// the soak's own counters C (GuardStats, FleetResult or
	// DaemonSoakCounters).
	SoakReport[C any] = soak.Report[C]
)

// Fleet control-plane types (robustness study). A fleet is N simulated
// chips hosting M tenants under hierarchical budget envelopes,
// time-bounded leases, heartbeat failure detection and exactly-once
// re-execution of displaced work.
type (
	// FleetOptions configure one fleet run.
	FleetOptions = fleet.Options
	// FleetResult is a completed fleet run: cost, availability,
	// re-execution counts, time-to-recovery tail and the control plane's
	// own guarantees (exactly-once, reconciled budgets, replay digest).
	FleetResult = fleet.Result
	// FleetStats counts control-plane activity over a run.
	FleetStats = fleet.Stats
	// FleetWork is the work a fleet hosts: M tenants × cells.
	FleetWork = fleet.Work
	// FleetSoakOptions configure the fleet chaos soak.
	FleetSoakOptions = fleet.SoakOptions
	// ChipFaultSchedule is a deterministic list of chip-level fault
	// events (crashes, hangs, heartbeat loss).
	ChipFaultSchedule = fault.ChipSchedule
	// ChipFaultEvent is one scheduled chip fault.
	ChipFaultEvent = fault.ChipEvent
)

// RunFleet executes one fleet run: admission against budget envelopes,
// leased placement, failure detection and exactly-once re-execution.
func RunFleet(opts FleetOptions) (FleetResult, error) { return fleet.Run(opts) }

// RunFleetSoak executes the fleet chaos soak: chip crashes, hangs and
// heartbeat partitions across many seeds, asserting completion,
// exactly-once delivery, budget reconciliation and byte-identical
// replay on every run.
func RunFleetSoak(opts FleetSoakOptions) (SoakReport[FleetResult], error) { return fleet.Soak(opts) }

// FleetSoakScenarios lists the fleet soak's built-in scenario names.
func FleetSoakScenarios() []string { return fleet.SoakScenarios() }

// KillK returns a chip fault schedule that crashes k of n chips at the
// given tick, spread evenly across the fleet.
func KillK(chips, k int, tick int64) ChipFaultSchedule { return fault.KillK(chips, k, tick) }

// cashd is the fleet daemon: a long-lived server that owns a hosted
// fleet behind a Unix socket, journals every mutation before
// acknowledging it (kill -9 safe), sheds load at a bounded queue and
// drains gracefully on SIGTERM. See cmd/cashd for the binary and
// internal/daemon for the state machine.
type (
	// DaemonOptions configure a cashd instance.
	DaemonOptions = daemon.Options
	// DaemonServer is a running cashd instance.
	DaemonServer = daemon.Server
	// DaemonTenantSpec is a submit-tenant request body.
	DaemonTenantSpec = daemon.TenantSpec
	// DaemonEpoch is one watch-epochs stream event.
	DaemonEpoch = daemon.Epoch
	// DaemonClient is the retrying cashd client: capped exponential
	// backoff with deterministic jitter, retries only when safe
	// (idempotent reads always, mutations only under an idempotency
	// key).
	DaemonClient = client.Client
	// DaemonClientOptions configure a DaemonClient.
	DaemonClientOptions = client.Options
	// DaemonSoakOptions configure the daemon chaos soak.
	DaemonSoakOptions = daemonsoak.Options
	// DaemonSoakCounters are one daemon soak seed's kills, cells landed
	// and nanodollars reconciled.
	DaemonSoakCounters = daemonsoak.Counters
	// WireFaultSpec parameterises deterministic wire-level fault
	// injection (drop/delay/duplicate/truncate/reorder).
	WireFaultSpec = fault.WireSpec
)

// StartDaemon launches a cashd instance: journal resumed, socket
// bound, fleet loop running.
func StartDaemon(opts DaemonOptions) (*DaemonServer, error) { return daemon.Start(opts) }

// DialDaemon creates a retrying client for a cashd socket.
func DialDaemon(opts DaemonClientOptions) (*DaemonClient, error) { return client.Dial(opts) }

// RunDaemonSoak executes the daemon chaos soak: seeded wire faults,
// kill -9 + restart cycles on a shared journal, exactly-once tenant
// execution, nanodollar-exact spend reconciliation and digest-identical
// replay.
func RunDaemonSoak(opts DaemonSoakOptions) (SoakReport[DaemonSoakCounters], error) {
	return daemonsoak.Run(opts)
}

// DefaultDaemonSocketPath returns the conventional cashd socket
// location ($CASHD_SOCKET, else the user cache directory).
func DefaultDaemonSocketPath() string { return daemon.DefaultSocketPath() }

// DefaultDaemonJournalPath returns the conventional cashd journal
// location ($CASHD_JOURNAL, else the user cache directory).
func DefaultDaemonJournalPath() string { return daemon.DefaultJournalPath() }

// DefaultWireFaultSpec returns the chaos soak's wire fault mix for a
// seed: 5% drop, 5% delay, 4% duplicate, 3% truncate, 3% reorder.
func DefaultWireFaultSpec(seed uint64) WireFaultSpec { return fault.DefaultWireSpec(seed) }

// RunChaos executes the chaos soak: adversarial workloads (phase
// storms, load spikes, all-miss memory phases), injected tile faults
// and deliberate runtime-state corruption across many seeds, asserting
// no panics, no NaN in runtime state, breaker-bounded QoS-violation
// streaks and byte-identical replay per seed.
func RunChaos(opts ChaosOptions) (SoakReport[GuardStats], error) { return chaos.Run(opts) }

// ChaosScenarios lists the soak's built-in scenario names.
func ChaosScenarios() []string { return chaos.Scenarios() }

// ConfigSpace returns the full 8×8 virtual-core configuration grid.
func ConfigSpace() []Config { return vcore.Space() }

// MinConfig and MaxConfig bound the configuration space.
func MinConfig() Config { return vcore.Min() }

// MaxConfig returns the largest configuration (8 Slices, 8MB L2).
func MaxConfig() Config { return vcore.Max() }

// DefaultSliceConfig returns Table I.
func DefaultSliceConfig() SliceConfig { return slice.DefaultConfig() }

// DefaultPricing returns the paper's pricing model ($0.0098/Slice/hr +
// $0.0032/64KB/hr, anchored to EC2 t2.micro).
func DefaultPricing() PricingModel { return cost.Default() }

// Benchmarks returns the paper's 13-application suite (§V-B).
func Benchmarks() []App { return workload.Apps() }

// Benchmark looks one application up by name ("x264", "mcf", ...).
func Benchmark(name string) (App, bool) { return workload.ByName(name) }

// NewSimulator builds a simulator for one virtual core in the given
// configuration with the Table I microarchitecture.
func NewSimulator(cfg Config) (*Simulator, error) {
	return ssim.New(cfg, slice.DefaultConfig(), ssim.SteerEarliest)
}

// NewRuntime builds the CASH runtime for a QoS target (an IPC floor for
// batch applications, or 1.0 for normalized-latency server QoS) under
// the default pricing model.
func NewRuntime(target float64, opts RuntimeOptions) (*Runtime, error) {
	return cashrt.New(target, cost.Default(), opts)
}

// NewConvex builds the convex-optimization baseline allocator (§VI-C),
// calibrated with the given average-case speedup model.
func NewConvex(target float64, avgSpeedup func(Config) float64) (*Runtime, error) {
	return cashrt.NewConvex(target, cost.Default(), avgSpeedup)
}

// Run executes an application under an allocator on the simulated CASH
// fabric and returns the cost/QoS outcome.
func Run(app App, policy Allocator, opts RunOptions) (Result, error) {
	return experiment.Run(app, policy, opts)
}

// NewOracle builds a characterisation database with the paper's
// defaults. Use LoadCache/SaveCache to persist the brute-force sweep.
func NewOracle() *Oracle { return oracle.NewDB() }

// ReproduceOptions tune Reproduce beyond the workload scale.
type ReproduceOptions struct {
	// Scale shrinks the workloads (0 or 1.0 = the full evaluation).
	Scale float64
	// FaultRate and FaultSeed parameterise the "reliability" artifact's
	// injected-fault schedule (0 = that study's defaults).
	FaultRate float64
	FaultSeed uint64

	// Stream, QueueCap, Shed and TailTarget parameterise the "tail"
	// artifact's serving study: the arrival shape (see
	// workload.StreamNames), the bounded-queue capacity, the shed
	// policy ("drop-newest" or "deadline"; "" compares both) and the
	// SLO tail budget in cycles. Zero values select the study defaults.
	Stream     string
	QueueCap   int
	Shed       string
	TailTarget int64

	// FleetChips, FleetTenants and FleetKill parameterise the "fleet"
	// artifact's control-plane study: fleet size, tenant count and how
	// many chips the crash-K scenario kills mid-run. Zero values select
	// the study defaults (6 chips, 6 tenants, kill 2).
	FleetChips   int
	FleetTenants int
	FleetKill    int

	// Supervision: every (app, policy) cell of every artifact runs under
	// a supervised executor — a panicking, erroring or hanging cell
	// renders as FAILED(reason) while the rest of the report completes.

	// Jobs bounds how many cells run in parallel (0 or 1 = sequential).
	// The report is byte-identical regardless of Jobs.
	Jobs int
	// SweepPar bounds the oracle characterisation sweep's intra-cell
	// worker budget: 0 draws from the process-wide shared pool (which
	// Jobs-level parallelism also draws from, so the two compose without
	// oversubscribing the host), 1 forces a serial sweep, any other value
	// builds a dedicated budget of that size. The report and the on-disk
	// characterisation cache are byte-identical at every setting.
	SweepPar int
	// CellTimeout is the per-cell wall-clock budget (0 = none).
	CellTimeout time.Duration
	// MaxRetries grants failing cells extra attempts with jittered
	// exponential backoff.
	MaxRetries int
	// JournalPath is the crash-safe result journal ("" = no journal;
	// DefaultJournalPath returns the conventional location). Completed
	// cells are appended as checksummed JSONL records.
	JournalPath string
	// Resume replays journal-completed cells from an interrupted run
	// instead of re-running them; the journal is discarded when its
	// scale/seed fingerprint does not match this run.
	Resume bool
	// Log receives diagnostics (characterisation timing, journal reuse,
	// retry notices) that are kept out of the report for
	// byte-reproducibility. nil discards them.
	Log io.Writer

	// Tier selects the simulation fidelity of oracle characterisation
	// sweeps: "cycle" (the default — the authoritative tier every paper
	// figure is produced on), "interval" or "sampled". Fast tiers trade
	// the calibration-gated IPC tolerance for an order of magnitude of
	// sweep throughput; the on-disk characterisation cache keys encode
	// the tier, so runs at different tiers never poison each other.
	Tier string
	// SampleWindow and SampleStride are the sampled tier's detailed
	// window length and window-start spacing in instructions (0 = the
	// isim defaults). Ignored by the other tiers.
	SampleWindow, SampleStride int64
}

// DefaultJournalPath returns the conventional location of the result
// journal ($CASH_JOURNAL, else the user cache directory).
func DefaultJournalPath() string { return supervise.DefaultJournalPath() }

// ValidateTier checks a -tier flag value ("cycle", "interval",
// "sampled") without building anything.
func ValidateTier(s string) error {
	_, err := isim.ParseTier(s)
	return err
}

// Default sampled-tier geometry (instructions), re-exported for flag
// defaults.
const (
	DefaultSampleWindow = isim.DefaultSampleWindow
	DefaultSampleStride = isim.DefaultSampleStride
)

// RecordCalibGolden runs the golden cycle-level characterisation of the
// calibration corpus over the full configuration space and writes it to
// path, for later RunCalibGate calls. sweepPar bounds the sweep's
// worker budget (0 = the shared process-wide pool).
func RecordCalibGolden(path string, sweepPar int) error {
	return calib.RecordGolden(calibPool(sweepPar)).Save(path)
}

// RunCalibGate replays the calibration corpus on every fast tier
// against the goldens recorded at goldenPath and enforces the
// CalibTolerance contract, writing a summary (and, on failure, the full
// per-cell delta table) to w. It returns the gate error when any
// (app, config, phase) cell is out of tolerance.
func RunCalibGate(w io.Writer, goldenPath string, sweepPar int) error {
	g, err := calib.LoadGolden(goldenPath)
	if err != nil {
		return err
	}
	rep := g.Compare(calibPool(sweepPar))
	if err := rep.Gate(isim.CalibTolerance); err != nil {
		fmt.Fprint(w, rep.Table(isim.CalibTolerance))
		return err
	}
	fmt.Fprintf(w, "calib: %d cells within %.1f%% of the golden cycle-level IPC\n",
		len(rep.Cells), 100*isim.CalibTolerance)
	return nil
}

func calibPool(sweepPar int) *par.Pool {
	if sweepPar == 0 {
		return nil // the shared process-wide pool
	}
	return par.New(sweepPar)
}

// Reproduce regenerates a named artifact of the paper's evaluation
// ("fig1", "fig2", "table1", "table2", "overhead", "fig7", "table3",
// "fig8", "fig9", "fig10", "ablations", "reliability", "tail", "fleet",
// or "all"), writing the report to w. scale shrinks the workloads (1.0 =
// the full evaluation).
func Reproduce(w io.Writer, artifact string, scale float64) error {
	return ReproduceWith(w, artifact, ReproduceOptions{Scale: scale})
}

// ReproduceWith is Reproduce with full options.
func ReproduceWith(w io.Writer, artifact string, o ReproduceOptions) error {
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) || o.Scale < 0 {
		return fmt.Errorf("cash: workload scale %v must be a non-negative finite factor", o.Scale)
	}
	if o.FaultRate < 0 || math.IsNaN(o.FaultRate) || math.IsInf(o.FaultRate, 0) {
		return fmt.Errorf("cash: fault rate %v must be a non-negative finite rate", o.FaultRate)
	}
	h := figs.New(w)
	if o.Tier != "" {
		tier, err := isim.ParseTier(o.Tier)
		if err != nil {
			return fmt.Errorf("cash: %w", err)
		}
		h.DB.Tier = tier
		h.DB.SampleWindow = o.SampleWindow
		h.DB.SampleStride = o.SampleStride
	}
	if o.Scale > 0 {
		h.Scale = o.Scale
	}
	h.FaultRate = o.FaultRate
	h.FaultSeed = o.FaultSeed
	h.StreamName = o.Stream
	h.QueueCap = o.QueueCap
	h.ShedName = o.Shed
	h.TailTarget = o.TailTarget
	h.FleetChips = o.FleetChips
	h.FleetTenants = o.FleetTenants
	h.FleetKill = o.FleetKill
	h.Jobs = o.Jobs
	h.SweepPar = o.SweepPar
	h.CellTimeout = o.CellTimeout
	h.MaxRetries = o.MaxRetries
	h.JournalPath = o.JournalPath
	h.Resume = o.Resume
	if o.Log != nil {
		h.Log = o.Log
	}
	defer h.Close()
	defer h.Save()
	runFig7 := func() error {
		res, err := h.Fig7()
		if err != nil {
			return err
		}
		h.Table3(res)
		return nil
	}
	var err error
	switch artifact {
	case "fig1":
		err = h.Fig1()
	case "fig2":
		err = h.Fig2()
	case "table1":
		h.Table1()
	case "table2":
		h.Table2()
	case "overhead":
		err = h.Overhead()
	case "fig7", "table3":
		err = runFig7()
	case "fig8":
		err = h.Fig8()
	case "fig9":
		err = h.Fig9()
	case "fig10":
		_, err = h.Fig10()
	case "ablations":
		err = h.Ablations()
	case "reliability":
		_, err = h.Reliability()
	case "tail":
		err = h.TailStudy()
	case "fleet":
		err = h.FleetStudy()
	case "all":
		h.Table1()
		h.Table2()
		for _, f := range []func() error{
			h.Fig1, h.Fig2, h.Overhead, runFig7, h.Fig8, h.Fig9,
			func() error { _, err := h.Fig10(); return err },
			h.Ablations,
			func() error { _, err := h.Reliability(); return err },
			h.TailStudy,
			h.FleetStudy,
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("cash: unknown artifact %q", artifact)
	}
	if err == nil {
		// The run completed: shrink the journal to one winning record per
		// cell so resumable runs don't accrete attempt history forever.
		h.CompactJournal()
	}
	return err
}
