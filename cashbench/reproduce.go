package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/guard"
	"cash/internal/oracle"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// oraclePath is the warm characterisation cache of one generator seed.
func oraclePath(seed uint64) string {
	return filepath.Join(outDir, fmt.Sprintf("oracle-scale%g-%016x.gob", benchScale, seed))
}

// loadOracle loads the warm characterisation into a fresh database and
// reports how long the load took.
func loadOracle(path string, seed uint64, apps []workload.App) (*oracle.DB, time.Duration, error) {
	db := oracle.NewDB()
	db.Seed = seed
	t := time.Now()
	err := db.LoadCache(path)
	d := time.Since(t)
	if err == nil && db.Entries() != len(apps)*len(vcore.Space()) {
		err = fmt.Errorf("%s holds %d cells, want %d", path, db.Entries(), len(apps)*len(vcore.Space()))
	}
	return db, d, err
}

// warmOracle builds the characterisation once, outside every timed
// phase, and returns whether it had to.
func warmOracle(path string, seed uint64, apps []workload.App) (bool, error) {
	if _, _, err := loadOracle(path, seed, apps); err == nil {
		return false, nil
	}
	db := newColdDB(seed)
	for _, app := range apps {
		db.CharacterizeApp(app)
	}
	if err := db.SaveCache(path); err != nil {
		return true, fmt.Errorf("saving characterisation: %w", err)
	}
	_, _, err := loadOracle(path, seed, apps)
	return true, err
}

// frame is an application's experimental frame read from the oracle:
// the QoS target and the baselines' a-priori knowledge.
type frame struct {
	target   float64
	optCost  float64
	worst    vcore.Config
	perPhase []vcore.Config
	phaseQoS []float64
	speedup  func(vcore.Config) float64
}

func lookupFrame(db *oracle.DB, app workload.App, m cost.Model) (frame, error) {
	var f frame
	var err error
	f.target = db.QoSTarget(app)
	if f.optCost, err = db.OptimalCost(app, f.target, m); err != nil {
		return f, err
	}
	if f.worst, err = db.WorstCaseConfig(app, f.target, m); err != nil {
		return f, err
	}
	if f.perPhase, f.phaseQoS, err = db.BestPerPhase(app, f.target, m); err != nil {
		return f, err
	}
	f.speedup = db.AvgSpeedup(app)
	return f, nil
}

func (f frame) digest() string {
	var d digest
	d.f64(f.target).f64(f.optCost).str(f.worst.String())
	for i, c := range f.perPhase {
		d.str(c.String()).f64(f.phaseQoS[i])
	}
	for _, c := range vcore.Space() {
		d.f64(f.speedup(c))
	}
	return d.sum()
}

// fig7Policies are the Fig 7 allocators that execute (Optimal is the
// analytic oracle row).
var fig7Policies = []string{"ConvexOptimization", "RaceToIdle", "CASH"}

func fig7Policy(name string, f frame, m cost.Model, seed uint64) (alloc.Allocator, error) {
	switch name {
	case "ConvexOptimization":
		return cashrt.NewConvex(f.target, m, f.speedup)
	case "RaceToIdle":
		return alloc.RaceToIdle{WorstCase: f.worst, TargetQoS: f.target}, nil
	default:
		return cashrt.New(f.target, m, cashrt.Options{Seed: seed})
	}
}

// tailVariants are the tail study's queue policies.
var tailVariants = []struct {
	name     string
	queueCap int
	shed     experiment.ShedPolicy
}{
	{"unbounded", -1, experiment.ShedDropNewest},
	{"drop-newest", 64, experiment.ShedDropNewest},
	{"deadline", 64, experiment.ShedDeadline},
}

// tailTargetCycles is the tail study's per-request latency target.
const tailTargetCycles = 110_000

// tailHorizon bounds each tail cell in cycles: two slots of
// flashStream, so every seed serves exactly two whole crowds.
const tailHorizon = 8_000_000

// flashStream is the "flash" arrival preset (workload.StreamByName)
// compressed 10x in time: a crowd of 10x the base rate in the first half
// of every 4M-cycle slot, ramping for 0.1M cycles, holding 0.3M and
// decaying over 0.4M. The preset's 40M-cycle slots are longer than any
// affordable horizon, so a horizon scaled down like the apps would catch
// a crowd for some seeds and none for others.
func flashStream(seed uint64) *workload.ShapedStream {
	return &workload.ShapedStream{
		BaseRate:         6,
		InstrsPerRequest: 20000,
		Jitter:           0.15,
		Seed:             seed,
		Shapes: []workload.RateShape{workload.FlashCrowd{
			EveryMCycles: 4, Magnitude: 9,
			RampMCycles: 0.1, HoldMCycles: 0.3, DecayMCycles: 0.4,
			Seed: seed ^ 0xf1a5,
		}},
	}
}

func runTail(v int, m cost.Model, sims *ssim.SimPool, seed uint64, wrap func(alloc.Allocator) alloc.Allocator) (experiment.ServerResult, error) {
	opts := experiment.ServerOpts{
		Arrivals:            flashStream(seed),
		TargetLatencyCycles: tailTargetCycles,
		TailTargetCycles:    tailTargetCycles,
		QueueCap:            tailVariants[v].queueCap,
		Shed:                tailVariants[v].shed,
		Horizon:             tailHorizon,
	}
	opts.Opts.Tolerance = 0.10
	opts.Opts.Model = m
	opts.Opts.Sims = sims
	policy, err := cashrt.New(1.0, m, cashrt.Options{
		Seed: seed, SingleConfig: true,
		GuardStyle: cashrt.GuardCommitted, Margin: 0.15,
		Guardrails: true,
	})
	if err != nil {
		return experiment.ServerResult{}, err
	}
	return experiment.RunServer(wrap(policy), opts)
}

func tailDigest(r experiment.ServerResult) string {
	var d digest
	d.f64(r.P50).f64(r.P95).f64(r.P99).f64(r.P999).f64(r.MeanLatency)
	d.f64(r.ViolationRate).f64(r.SLOViolationMinutes).f64(r.TotalCost)
	d.i64(int64(r.TailViolations)).i64(int64(r.StarvedSamples)).i64(int64(r.MaxQueueDepth))
	d.i64(r.Served).i64(r.Shed).i64(r.TimedOut).i64(r.Guard.TailTrips).i64(int64(len(r.Samples)))
	return d.sum()
}

// timedAlloc times every Decide call of the allocator it wraps. It
// forwards GuardStats, so the engine's results stay identical.
type timedAlloc struct {
	alloc.Allocator
	tr     *tracer
	op     string
	parent int
}

func (a timedAlloc) Decide(prev []alloc.Observation, tau int64) alloc.Plan {
	sp := a.tr.begin("cashrt.Decide", a.op, a.parent)
	p := a.Allocator.Decide(prev, tau)
	a.tr.end(sp)
	return p
}

func (a timedAlloc) GuardStats() guard.Stats {
	if g, ok := a.Allocator.(interface{ GuardStats() guard.Stats }); ok {
		return g.GuardStats()
	}
	return guard.Stats{}
}

// passStats are one reproduce pass's measurements.
type passStats struct {
	wall                             float64   // seconds
	land                             []float64 // ms per operation
	quanta, reconfigs, stall, instrs int64
	served, shed, timedOut           int64
	lookupMs, runMs, serverMs        float64
}

// reproducePass runs every Fig 7 and tail-study cell once. The
// applications run the characterised traces (db.Seed); input set k
// (seed) seeds the CASH runtime's exploration and the arrival stream.
func reproducePass(db *oracle.DB, apps []workload.App, sims *ssim.SimPool, k int, seed uint64, tr *tracer, ck *checker) passStats {
	var ps passStats
	m := cost.Default()
	start := time.Now()
	root := tr.begin("reproduce", "", 0)
	op := func(name, key string, fn func(parent int) (string, error)) {
		key = setKey(k, key)
		sp := tr.begin(name, key, root)
		dig, err := fn(sp)
		now := time.Now()
		tr.end(sp)
		if err != nil {
			ck.failOp(fmt.Sprintf("%s: %v", key, err))
			return
		}
		ps.land = append(ps.land, float64(now.Sub(start))/1e6)
		ck.check(key, dig)
	}
	wrapper := func(key string, parent int) func(alloc.Allocator) alloc.Allocator {
		if tr == nil {
			return func(a alloc.Allocator) alloc.Allocator { return a }
		}
		return func(a alloc.Allocator) alloc.Allocator { return timedAlloc{a, tr, key, parent} }
	}
	for _, app := range apps {
		var f frame
		var ferr error
		op("oracle.lookup", "oracle/"+app.Name, func(int) (string, error) {
			f, ferr = lookupFrame(db, app, m)
			if ferr != nil {
				return "", ferr
			}
			return f.digest(), nil
		})
		if ferr != nil {
			for _, name := range fig7Policies {
				ck.failOp(setKey(k, "fig7/"+app.Name+"/"+name) + ": no oracle frame")
			}
			continue
		}
		for _, name := range fig7Policies {
			key := "fig7/" + app.Name + "/" + name
			op("experiment.Run", key, func(parent int) (string, error) {
				policy, err := fig7Policy(name, f, m, seed)
				if err != nil {
					return "", err
				}
				r, err := experiment.Run(app, wrapper(key, parent)(policy), experiment.Opts{
					Target: f.target, Model: m, Tolerance: 0.10, Seed: db.Seed, Sims: sims,
				})
				if err != nil {
					return "", err
				}
				ps.quanta += int64(len(r.Samples))
				ps.reconfigs += r.ReconfigCount
				ps.stall += r.StallCycles
				ps.instrs += r.TotalInstrs
				var d digest
				d.f64(r.TotalCost).f64(r.ViolationRate).i64(r.TotalCycles).i64(r.ReconfigCount)
				return d.sum(), nil
			})
		}
	}
	for v := range tailVariants {
		key := "tail/flash/" + tailVariants[v].name
		op("experiment.RunServer", key, func(parent int) (string, error) {
			r, err := runTail(v, m, sims, seed, wrapper(key, parent))
			if err != nil {
				return "", err
			}
			ps.served += r.Served
			ps.shed += r.Shed
			ps.timedOut += r.TimedOut
			return tailDigest(r), nil
		})
	}
	tr.end(root)
	ps.wall = time.Since(start).Seconds()
	if tr != nil {
		ps.lookupMs = tr.childSum(root, "oracle.lookup", time.Millisecond)
		ps.runMs = tr.childSum(root, "experiment.Run", time.Millisecond)
		ps.serverMs = tr.childSum(root, "experiment.RunServer", time.Millisecond)
	}
	return ps
}

func runReproduce(cfg config) (*outcome, error) {
	ck, err := newChecker("reproduce", cfg.seed)
	if err != nil {
		return nil, err
	}
	apps, err := scaledApps()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	// The applications' traces are fixed: the oracle's default generator
	// seed, which the paper figures use. So the warm characterisation is
	// one file per checkout, and the seed drives what the runtime study
	// varies: exploration and arrivals.
	wseed := oracle.NewDB().Seed
	path := oraclePath(wseed)
	tb := time.Now()
	built, err := warmOracle(path, wseed, apps)
	if err != nil {
		return nil, err
	}
	if built {
		o.notes = append(o.notes, fmt.Sprintf("reproduce: built the warm characterisation in %.1fs (untimed)", time.Since(tb).Seconds()))
	}

	// Set-up: load the warm characterisation several times; the passes
	// use the last load.
	var db *oracle.DB
	for i := 0; i < 15; i++ {
		runtime.GC()
		var d time.Duration
		db, d, err = loadOracle(path, wseed, apps)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, d.Seconds())
	}
	sims := ssim.NewSimPool(slice.DefaultConfig(), ssim.SteerEarliest)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var traced []passStats
	begin := time.Now()
	for i := 0; i < cfg.minReps() || time.Since(begin).Seconds() < cfg.seconds; i++ {
		isTraced := cfg.trace && i%2 == 1
		var ptr *tracer
		if isTraced {
			ptr = tr
		}
		runtime.GC()
		k := inputSet(i, cfg.trace)
		ps := reproducePass(db, apps, sims, k, subSeed(cfg.seed, k), ptr, ck)
		if isTraced {
			traced = append(traced, ps)
			continue
		}
		o.walls = append(o.walls, ps.wall)
		o.land = append(o.land, ps.land...)
	}
	ck.finish(o)
	if cfg.trace {
		pick := func(f func(passStats) float64) float64 {
			v := make([]float64, len(traced))
			for i, ps := range traced {
				v[i] = f(ps)
			}
			return median(v)
		}
		last := traced[len(traced)-1]
		runMs := pick(func(p passStats) float64 { return p.runMs })
		o.layers = layerMetrics(map[string]float64{
			"oracle.load_ms":          1e3 * median(o.setup),
			"oracle.lookup_ms":        pick(func(p passStats) float64 { return p.lookupMs }),
			"experiment.run_ms":       runMs,
			"experiment.server_ms":    pick(func(p passStats) float64 { return p.serverMs }),
			"experiment.quanta":       float64(last.quanta),
			"experiment.reconfigs":    float64(last.reconfigs),
			"experiment.stall_cycles": float64(last.stall),
			"experiment.instrs":       float64(last.instrs),
			"experiment.minstr_per_s": float64(last.instrs) / 1e6 / (runMs / 1e3),
			"cashrt.decide_calls":     float64(len(tr.durs("cashrt.Decide", time.Microsecond))) / float64(len(traced)),
			"cashrt.decide_us.p50":    median(tr.durs("cashrt.Decide", time.Microsecond)),
			"serve.served":            float64(last.served),
			"serve.shed":              float64(last.shed),
			"serve.timed_out":         float64(last.timedOut),
			"trace.overhead_frac":     pick(func(p passStats) float64 { return p.wall })/median(o.walls) - 1,
		})
		o.spans = tr.all()
	}
	o.notes = append(o.notes, fmt.Sprintf("reproduce: %d passes of %d Fig 7 cells and %d tail cells over %v at scale %g; untraced walls %s",
		len(o.walls)+len(traced), len(apps)*(len(fig7Policies)+1), len(tailVariants), benchApps, benchScale, fmtSeconds(o.walls)))
	return o, nil
}
