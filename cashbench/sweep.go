package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cash/internal/isa"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// benchApps are the applications both simulator workloads run: x264
// (ten phases, moving optima), mcf (overflows the modelled L2, so mem is
// busy) and hmmer (compute-bound, mem nearly idle).
var benchApps = []string{"x264", "mcf", "hmmer"}

// benchScale shrinks every application's instruction count so that one
// cold sweep of all three takes a few seconds on a 2-core host.
const benchScale = 0.02

// scaledApps builds and validates the benchmark's applications.
func scaledApps() ([]workload.App, error) {
	apps := make([]workload.App, 0, len(benchApps))
	for _, name := range benchApps {
		a, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown application %q", name)
		}
		a = a.Scale(benchScale)
		if err := a.Validate(); err != nil {
			return nil, err
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// newColdDB is a fresh characterisation database: no disk cache, the
// generator seed, and one sweep worker per CPU.
func newColdDB(seed uint64) *oracle.DB {
	db := oracle.NewDB()
	db.Seed = seed
	db.Pool = par.New(runtime.NumCPU())
	return db
}

// setupReps is how many times each iteration repeats its set-up (the
// last repetition's database is the one swept); set-up takes
// microseconds, so one sample per iteration would be mostly noise.
const setupReps = 25

// sweepIter is one cold sweep of every application.
type sweepIter struct {
	setup          []float64 // seconds, per set-up repetition
	wall           float64   // seconds
	land           []float64 // ms per cell (untraced)
	cellMs         []float64 // ms per DB.Characterize call (traced)
	instrs, cycles int64     // simulated totals over every cell
	db             *oracle.DB
	apps           []workload.App
}

// coldSweep runs oracle.DB.CharacterizeApp over every application on a
// fresh database. Untraced, it sees cells only as they land in the
// database, which a poller samples every millisecond; traced, it drives
// the same ForEach over vcore.Space() itself so each DB.Characterize
// call gets a span.
func coldSweep(seed uint64, tr *tracer) (sweepIter, error) {
	var it sweepIter
	var apps []workload.App
	var db *oracle.DB
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t := time.Now()
		var err error
		if apps, err = scaledApps(); err != nil {
			return it, err
		}
		db = newColdDB(seed)
		it.setup = append(it.setup, time.Since(t).Seconds())
	}
	if db.Entries() != 0 {
		return it, fmt.Errorf("sweep database is not cold")
	}
	it.db, it.apps = db, apps

	runtime.GC()
	start := time.Now()
	var stop func() []float64
	if tr == nil {
		stop = pollLandings(db, start)
	}
	var mu sync.Mutex
	root := tr.begin("sweep", "", 0)
	for _, app := range apps {
		if tr == nil {
			db.CharacterizeApp(app)
		} else {
			sp := tr.begin("oracle.CharacterizeApp", app.Name, root)
			space := vcore.Space()
			db.Pool.ForEach(len(space), func(i int) {
				c := tr.begin("oracle.Characterize", app.Name+"/"+space[i].String(), sp)
				tc := time.Now()
				db.Characterize(app, space[i])
				ms := float64(time.Since(tc)) / 1e6
				tr.end(c)
				mu.Lock()
				it.cellMs = append(it.cellMs, ms)
				mu.Unlock()
			})
			tr.end(sp)
		}
	}
	tr.end(root)
	it.wall = time.Since(start).Seconds()
	if stop != nil {
		it.land = stop()
	}
	return it, nil
}

// pollLandings samples db.Entries() every millisecond and records, for
// each newly stored cell, the time since start. The returned stop
// function ends the poller, waits for it, and returns the times.
func pollLandings(db *oracle.DB, start time.Time) func() []float64 {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var lands []float64
		seen := 0
		sample := func() {
			n := db.Entries()
			ms := float64(time.Since(start)) / 1e6
			for ; seen < n; seen++ {
				lands = append(lands, ms)
			}
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-quit:
				sample()
				done <- lands
				return
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// checkSweep digests every (app, config) characterisation and sums the
// simulated instructions and cycles the characterisations imply.
func checkSweep(it *sweepIter, k int, ck *checker) {
	if n, want := it.db.Entries(), len(it.apps)*len(vcore.Space()); n != want {
		ck.fail(fmt.Sprintf("sweep measured %d cells, want %d", n, want))
	}
	for _, app := range it.apps {
		for _, cfg := range vcore.Space() {
			ch := it.db.Characterize(app, cfg)
			var d digest
			d.str(app.Name).str(cfg.String())
			for pi, p := range app.Phases {
				d.f64(ch.Avg[pi]).f64(ch.MinQ[pi])
				it.instrs += p.Instrs
				if ch.Avg[pi] > 0 {
					it.cycles += int64(math.Round(float64(p.Instrs) / ch.Avg[pi]))
				}
			}
			ck.check(setKey(k, app.Name+"/"+cfg.String()), d.sum())
		}
	}
}

// genPass times one full pass of each application's trace through
// Gen.Next with the simulator's fetch-buffer size, in milliseconds.
func genPass(apps []workload.App, seed uint64, tr *tracer) float64 {
	buf := make([]isa.Instr, 512)
	var total float64
	for _, app := range apps {
		sp := tr.begin("workload.Gen.Next", app.Name, 0)
		t := time.Now()
		g := workload.NewGen(app, seed)
		for g.Next(buf) > 0 {
		}
		total += float64(time.Since(t)) / 1e6
		tr.end(sp)
	}
	return total
}

func runSweep(cfg config) (*outcome, error) {
	ck, err := newChecker("sweep", cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var tr *tracer
	var tracedWalls, cellMs, genMs, genShare, busy []float64
	var cells float64
	if cfg.trace {
		tr = newTracer()
	}
	var instrs, cycles int64
	begin := time.Now()
	// A traced run alternates untraced and traced iterations, so the
	// tracing overhead is measured under the same host conditions.
	for i := 0; i < cfg.minReps() || time.Since(begin).Seconds() < cfg.seconds; i++ {
		traced := cfg.trace && i%2 == 1
		var itr *tracer
		if traced {
			itr = tr
		}
		k := inputSet(i, cfg.trace)
		it, err := coldSweep(subSeed(cfg.seed, k), itr)
		if err != nil {
			return nil, err
		}
		checkSweep(&it, k, ck)
		instrs, cycles = it.instrs, it.cycles
		if !traced {
			o.setup = append(o.setup, it.setup...)
			o.walls = append(o.walls, it.wall)
			o.land = append(o.land, it.land...)
			continue
		}
		tracedWalls = append(tracedWalls, it.wall)
		cells = float64(it.db.Entries())
		g := genPass(it.apps, it.db.Seed, tr)
		cellSum := sum(it.cellMs)
		cellMs = append(cellMs, it.cellMs...)
		genMs = append(genMs, g)
		genShare = append(genShare, g*float64(len(vcore.Space()))/cellSum)
		busy = append(busy, cellSum/1e3/(float64(runtime.NumCPU())*it.wall))
	}
	ck.finish(o)
	if cfg.trace {
		gs := median(genShare)
		o.layers = layerMetrics(map[string]float64{
			"oracle.cells":        cells,
			"oracle.cell_ms.p50":  median(cellMs),
			"oracle.cell_ms.max":  maxOf(cellMs),
			"workload.gen_ms":     median(genMs),
			"workload.gen_share":  gs,
			"ssim.self_share":     1 - gs,
			"par.busy_frac":       median(busy),
			"sim.instrs":          float64(instrs),
			"sim.cycles":          float64(cycles),
			"trace.overhead_frac": median(tracedWalls)/median(o.walls) - 1,
		})
		o.spans = tr.all()
	}
	o.notes = append(o.notes, fmt.Sprintf("sweep: %d cold sweeps of %v at scale %g, %d workers; untraced walls %s",
		len(o.walls)+len(tracedWalls), benchApps, benchScale, runtime.NumCPU(), fmtSeconds(o.walls)))
	return o, nil
}
