package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	"cash/internal/fleet"
	"cash/internal/supervise"
)

// The cashd workload's fixed shape. One session submits cashdTenants
// tenants open-loop at a mean cashdRate per second (exponential gaps),
// on the daemon's default 20 ms epoch. With cashdChips×cashdSlots slots
// and 3–8-tick cells the fleet can land ~290 cells/s; the ~20 cells/s
// offered keep it far below slot capacity. The rate is low on purpose:
// the daemon fsyncs every submit and every landing on its core
// goroutine, and on a shared disk fsync-bound acks slow 3–15× for
// minutes at a time. At 20 cells/s a tick lands 0.4 cells on average,
// so even a 10× slower fsync (~1.2 ms) costs ~2.5% of a 20 ms tick and
// landing latency measures the control plane, not the disk; the submit
// latency, which is one fsync, is reported per layer.
const (
	cashdTenants  = 60
	cashdRate     = 10.0
	cashdMaxCells = 3
	cashdEpoch    = 20 * time.Millisecond
	cashdChips    = 8
	cashdSlots    = 4
)

// tenantPlan is one scheduled submit.
type tenantPlan struct {
	spec daemon.TenantSpec
	due  time.Duration // offset from the session start
}

// cashdSchedule derives a session's tenants and due times from the seed;
// every session of a run replays the same schedule. The exponential
// gaps are rescaled so the last submit is due at exactly
// cashdTenants/cashdRate seconds: every seed offers the same load over
// the same span.
func cashdSchedule(seed uint64) []tenantPlan {
	r := rand.New(rand.NewPCG(seed, 0xcad))
	plan := make([]tenantPlan, cashdTenants)
	at := make([]float64, cashdTenants)
	var t float64
	for i := range plan {
		t += r.ExpFloat64()
		at[i] = t
		plan[i].spec = daemon.TenantSpec{
			Name:  fmt.Sprintf("t%04d", i),
			Cells: 1 + r.IntN(cashdMaxCells),
			Seed:  r.Uint64(),
		}
	}
	span := float64(cashdTenants) / cashdRate * float64(time.Second)
	for i := range plan {
		plan[i].due = time.Duration(at[i] / t * span)
	}
	return plan
}

// cellDurations are the tick counts the daemon gives a spec's cells.
func cellDurations(spec daemon.TenantSpec) []int64 {
	w := fleet.SyntheticWork{TenantCount: 1, CellsPerTenant: spec.Cells, Seed: spec.Seed}
	d := make([]int64, spec.Cells)
	for i := range d {
		d[i] = w.Duration(0, i)
	}
	return d
}

// epochSeen is one watch event and when it arrived.
type epochSeen struct {
	ev daemon.Epoch
	at time.Time
}

// session is one daemon lifetime: start, open-loop submits, landing,
// reconciliation, drain.
type session struct {
	setup, wall  float64   // seconds
	submit, land []float64 // ms from due time; +Inf when refused
	ok           []bool    // per tenant: acked, landed once, reconciled
	lagMs        []float64 // send time minus due time
	epochs       []epochSeen
	health       daemon.HealthResult
	clientErrs   int
	frames       []daemon.Request
	failMsgs     []string
}

func (s *session) failf(format string, args ...any) {
	if len(s.failMsgs) < 4 {
		s.failMsgs = append(s.failMsgs, fmt.Sprintf(format, args...))
	}
}

// runSession runs one daemon session in a fresh directory under dir.
// The process holds at most two daemon connections at once: the submit
// connection (later the control connection) and the watch connection.
func runSession(dir string, plan []tenantPlan, tr *tracer) (*session, error) {
	s := &session{ok: make([]bool, len(plan))}
	tmp, err := os.MkdirTemp(dir, "d")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	sock := filepath.Join(tmp, "d.sock")

	// Set-up: daemon up with its journal, watch subscribed, submit
	// connection dialed.
	t0 := time.Now()
	sp := tr.begin("daemon.Start", "", 0)
	srv, err := daemon.Start(daemon.Options{
		Socket: sock, Journal: filepath.Join(tmp, "journal.jsonl"),
		Chips: cashdChips, SlotsPerChip: cashdSlots, Epoch: cashdEpoch,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	watcher, err := client.Dial(client.Options{Socket: sock})
	if err != nil {
		srv.Kill()
		return nil, err
	}
	var mu sync.Mutex
	subscribed := make(chan struct{})
	watchDone := make(chan error, 1)
	watchEnded := false
	defer func() {
		// Kill is a no-op once the daemon drained. On an error path it
		// severs the watch stream, which ends the watcher; Close must
		// wait for that, since Watch holds the client until it returns.
		srv.Kill()
		if !watchEnded {
			<-watchDone
		}
		watcher.Close()
	}()
	go func() {
		first := true
		watchDone <- watcher.Watch(5*time.Second, func(ev daemon.Epoch) bool {
			at := time.Now()
			esp := tr.begin("daemon.epoch", "", 0)
			mu.Lock()
			s.epochs = append(s.epochs, epochSeen{ev, at})
			mu.Unlock()
			tr.end(esp)
			if first {
				first = false
				close(subscribed)
			}
			return true
		})
	}()
	select {
	case <-subscribed:
	case err := <-watchDone:
		watchEnded = true
		return nil, fmt.Errorf("watch subscription: %v", err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s.setup = time.Since(t0).Seconds()

	// Open loop: the sender writes each submit at its due time whatever
	// the replies; the receiver matches acks by request ID.
	n := len(plan)
	acks := make([]time.Time, n)
	codes := make([]string, n)
	spans := make([]int, n)
	s.lagMs = make([]float64, n)
	s.frames = make([]daemon.Request, n)
	for i, p := range plan {
		params, err := json.Marshal(p.spec)
		if err != nil {
			return nil, err
		}
		s.frames[i] = daemon.Request{ID: uint64(i + 1), Method: daemon.MethodSubmit,
			Idem: "bench-" + p.spec.Name, Params: params}
	}
	start := time.Now()
	lastDue := start.Add(plan[n-1].due)
	if err := conn.SetReadDeadline(lastDue.Add(10 * time.Second)); err != nil {
		return nil, err
	}
	recvDone := make(chan error, 1)
	go func() {
		br := bufio.NewReader(conn)
		for got := 0; got < n; {
			var resp daemon.Response
			if err := daemon.ReadFrame(br, &resp); err != nil {
				recvDone <- err
				return
			}
			at := time.Now()
			if resp.ID < 1 || resp.ID > uint64(n) || !acks[resp.ID-1].IsZero() {
				continue
			}
			acks[resp.ID-1] = at
			codes[resp.ID-1] = resp.Code
			mu.Lock()
			tr.end(spans[resp.ID-1])
			mu.Unlock()
			got++
		}
		recvDone <- nil
	}()
	var sendErr error
	for i, p := range plan {
		due := start.Add(p.due)
		sleepUntil(due)
		now := time.Now()
		s.lagMs[i] = float64(now.Sub(due)) / 1e6
		mu.Lock()
		spans[i] = tr.begin("daemon.submit", p.spec.Name, 0)
		mu.Unlock()
		if err := daemon.WriteFrame(conn, s.frames[i]); err != nil {
			sendErr = err
			break
		}
	}
	if err := <-recvDone; err != nil || sendErr != nil {
		s.clientErrs++
		s.failf("submit connection: send %v, receive %v", sendErr, err)
	}
	conn.Close()

	// Wait for every admitted cell to land, as the watch stream reports.
	admittedCells := 0
	for i := range plan {
		if codes[i] == daemon.CodeOK {
			admittedCells += plan[i].spec.Cells
		} else if codes[i] != "" {
			s.clientErrs++
		}
	}
	landBy := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		landed := 0
		if k := len(s.epochs); k > 0 {
			landed = s.epochs[k-1].ev.CellsLanded
		}
		mu.Unlock()
		if landed >= admittedCells || time.Now().After(landBy) {
			break
		}
		time.Sleep(cashdEpoch / 2)
	}

	// Reconcile and drain over a control connection.
	ctl, err := client.Dial(client.Options{Socket: sock})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	csp := tr.begin("client.Health", "", 0)
	s.health, err = ctl.Health()
	tr.end(csp)
	if err != nil {
		s.clientErrs++
		s.failf("health: %v", err)
	}
	csp = tr.begin("client.Spend", "", 0)
	spend, err := ctl.Spend()
	tr.end(csp)
	if err != nil {
		s.clientErrs++
		s.failf("spend: %v", err)
	}
	csp = tr.begin("client.Drain", "", 0)
	if err := ctl.Drain(); err != nil {
		s.clientErrs++
		s.failf("drain: %v", err)
	}
	if err := srv.Wait(); err != nil {
		s.failf("daemon exit: %v", err)
	}
	tr.end(csp)
	s.wall = time.Since(start).Seconds()
	err = <-watchDone
	watchEnded = true
	if err != nil {
		s.clientErrs++
		s.failf("watch: %v", err)
	}

	landAt := s.reconstruct(plan, codes)
	byName := make(map[string]daemon.TenantSpend, len(spend.Tenants))
	for _, t := range spend.Tenants {
		byName[t.Name] = t
	}
	for i, p := range plan {
		due := start.Add(p.due)
		if codes[i] != daemon.CodeOK {
			s.submit = append(s.submit, math.Inf(1))
			s.land = append(s.land, math.Inf(1))
			s.failf("%s: submit answered %q", p.spec.Name, codes[i])
			continue
		}
		s.submit = append(s.submit, float64(acks[i].Sub(due))/1e6)
		t, ok := byName[p.spec.Name]
		want := daemon.ExpectedSpend(p.spec, cost.Model{})
		switch {
		case spend.RootOutstanding != 0:
			s.failf("root envelope has %d nanos outstanding", spend.RootOutstanding)
		case !ok:
			s.failf("%s: missing from spend", p.spec.Name)
		case t.Landed != t.Cells || t.Cells != p.spec.Cells:
			s.failf("%s: %d of %d cells landed", p.spec.Name, t.Landed, p.spec.Cells)
		case t.Granted != t.Consumed+t.Refunded || t.Outstanding != 0:
			s.failf("%s: granted %d != consumed %d + refunded %d (outstanding %d)",
				p.spec.Name, t.Granted, t.Consumed, t.Refunded, t.Outstanding)
		case t.Consumed != want:
			s.failf("%s: consumed %d, want %d", p.spec.Name, t.Consumed, want)
		case landAt[i].IsZero():
			s.failf("%s: landing not observed on the watch stream", p.spec.Name)
		default:
			s.ok[i] = true
		}
		if landAt[i].IsZero() {
			s.land = append(s.land, math.Inf(1))
		} else {
			s.land = append(s.land, float64(landAt[i].Sub(due))/1e6)
		}
	}
	return s, nil
}

// reconstruct replays the daemon's placement on the watch stream and
// returns when each tenant's last cell landed. The daemon admits
// tenants in submit order (one connection), places pending cells FIFO
// onto free slots at the next tick, and lands a cell placed at tick k
// with duration d at tick k+d-1; every event's Placed, Completed,
// CellsLanded and CellsTotal must match the replay, or no landing time
// is trusted.
func (s *session) reconstruct(plan []tenantPlan, codes []string) []time.Time {
	landAt := make([]time.Time, len(plan))
	type cell struct{ tenant, left int }
	var admitted []int // tenant indices in admission order
	for i := range plan {
		if codes[i] == daemon.CodeOK {
			admitted = append(admitted, i)
		}
	}
	left := make([]int, len(plan))
	var pending, running []cell
	next, total, landed := 0, 0, 0
	var prevTick int64 = -1
	for _, e := range s.epochs {
		ev := e.ev
		if ev.Final {
			continue
		}
		if prevTick < 0 {
			// The subscription reply snapshots the current tick.
			prevTick = ev.Tick
			if ev.CellsTotal != 0 {
				s.failf("watch: subscribed after %d cells were admitted", ev.CellsTotal)
				return make([]time.Time, len(plan))
			}
			continue
		}
		if ev.Tick != prevTick+1 {
			s.failf("watch: tick %d follows %d", ev.Tick, prevTick)
			return make([]time.Time, len(plan))
		}
		prevTick = ev.Tick
		for total < ev.CellsTotal && next < len(admitted) {
			i := admitted[next]
			next++
			total += plan[i].spec.Cells
			left[i] = plan[i].spec.Cells
			for _, d := range cellDurations(plan[i].spec) {
				pending = append(pending, cell{i, int(d)})
			}
		}
		placed := 0
		for len(pending) > 0 && len(running) < cashdChips*cashdSlots {
			running = append(running, pending[0])
			pending = pending[1:]
			placed++
		}
		completed := 0
		kept := running[:0]
		for _, c := range running {
			c.left--
			if c.left > 0 {
				kept = append(kept, c)
				continue
			}
			completed++
			left[c.tenant]--
			if left[c.tenant] == 0 {
				landAt[c.tenant] = e.at
			}
		}
		running = kept
		landed += completed
		if total != ev.CellsTotal || placed != ev.Placed || completed != ev.Completed || landed != ev.CellsLanded {
			s.failf("watch: tick %d replays total/placed/completed/landed %d/%d/%d/%d, daemon reports %d/%d/%d/%d",
				ev.Tick, total, placed, completed, landed, ev.CellsTotal, ev.Placed, ev.Completed, ev.CellsLanded)
			return make([]time.Time, len(plan))
		}
	}
	return landAt
}

// epochLagMs is how late each tick's event arrived after the previous
// one plus the epoch interval (the daemon re-arms its timer each tick).
func (s *session) epochLagMs() []float64 {
	var out []float64
	for i := 2; i < len(s.epochs); i++ {
		if s.epochs[i].ev.Final {
			break
		}
		due := s.epochs[i-1].at.Add(cashdEpoch)
		out = append(out, float64(s.epochs[i].at.Sub(due))/1e6)
	}
	return out
}

// wireUs times WriteFrame+ReadFrame of the session's own submit frames
// through memory, in microseconds per frame.
func wireUs(frames []daemon.Request) []float64 {
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	out := make([]float64, 0, len(frames))
	for _, f := range frames {
		t := time.Now()
		if err := daemon.WriteFrame(&buf, f); err != nil {
			panic(err)
		}
		var back daemon.Request
		if err := daemon.ReadFrame(br, &back); err != nil {
			panic(err)
		}
		out = append(out, float64(time.Since(t))/1e3)
	}
	return out
}

// journalUs times Journal.RecordOnce (append + fsync) on a scratch
// journal in dir, with one record per submit and per landed cell of the
// same sizes the daemon writes, in microseconds per record.
func journalUs(dir string, plan []tenantPlan) ([]float64, error) {
	tmp, err := os.MkdirTemp(dir, "j")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	j, err := supervise.OpenJournal(filepath.Join(tmp, "scratch.jsonl"), "cashbench-scratch", false)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	var out []float64
	record := func(key string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := j.RecordOnce(supervise.Entry{Status: supervise.StatusOK, Key: key, Value: b}); err != nil {
			return err
		}
		out = append(out, float64(time.Since(t))/1e3)
		return nil
	}
	for _, p := range plan {
		if err := record("submit bench-"+p.spec.Name, struct {
			Spec daemon.TenantSpec `json:"spec"`
		}{p.spec}); err != nil {
			return nil, err
		}
		for c := 0; c < p.spec.Cells; c++ {
			v := struct {
				Value    string `json:"value"`
				Consumed int64  `json:"consumed"`
			}{fmt.Sprintf("synth %016x", p.spec.Seed+uint64(c)), 1 << 20}
			if err := record(fmt.Sprintf("cell %s c%04d", p.spec.Name, c), v); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func runCashd(cfg config) (*outcome, error) {
	ck, err := newChecker("cashd", cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	plans := make([][]tenantPlan, subSeeds)
	for k := range plans {
		plans[k] = cashdSchedule(subSeed(cfg.seed, k))
	}
	o := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var submit, tracedSubmit, epochLag, lagMax, journal, wire []float64
	var epochs, cells, clientErrs, shed []float64
	begin := time.Now()
	for i := 0; i < cfg.minReps() || time.Since(begin).Seconds() < cfg.seconds; i++ {
		traced := cfg.trace && i%2 == 1
		var str *tracer
		if traced {
			str = tr
		}
		k := inputSet(i, cfg.trace)
		plan := plans[k]
		runtime.GC()
		s, err := runSession(dir, plan, str)
		if err != nil {
			return nil, err
		}
		for t := range plan {
			ck.ops++
			if !s.ok[t] {
				ck.fail(fmt.Sprintf("session %d: tenant %s", i, plan[t].spec.Name))
			}
		}
		for _, m := range s.failMsgs {
			o.notes = append(o.notes, fmt.Sprintf("session %d: %s", i, m))
		}
		ck.check(setKey(k, "health"), s.health.Digest)
		epochs = append(epochs, float64(len(s.epochs)))
		cells = append(cells, float64(s.health.CellsLanded))
		clientErrs = append(clientErrs, float64(s.clientErrs))
		shed = append(shed, float64(s.health.Shed))
		lagMax = append(lagMax, maxOf(s.lagMs))
		if !traced {
			o.setup = append(o.setup, s.setup)
			o.walls = append(o.walls, s.wall)
			o.land = append(o.land, s.land...)
			submit = append(submit, s.submit...)
			continue
		}
		tracedSubmit = append(tracedSubmit, s.submit...)
		epochLag = append(epochLag, s.epochLagMs()...)
		wire = append(wire, wireUs(s.frames)...)
		js, err := journalUs(dir, plan)
		if err != nil {
			return nil, err
		}
		journal = append(journal, js...)
	}
	ck.finish(o)
	if cfg.trace {
		o.layers = layerMetrics(map[string]float64{
			"daemon.submit_ms.p50":     quantile(submit, 0.50),
			"daemon.submit_ms.p95":     quantile(submit, 0.95),
			"daemon.wire_us":           median(wire),
			"supervise.journal_us.p50": quantile(journal, 0.50),
			"supervise.journal_us.p99": quantile(journal, 0.99),
			"daemon.epoch_lag_ms.p99":  quantile(epochLag, 0.99),
			"daemon.epochs":            median(epochs),
			"daemon.cells_landed":      median(cells),
			"client.errors":            sum(clientErrs),
			"cashd.shed":               sum(shed),
			"loadgen.lag_ms.max":       maxOf(lagMax),
			"trace.overhead_frac":      quantile(tracedSubmit, 0.5)/quantile(submit, 0.5) - 1,
		})
		o.spans = tr.all()
	}
	o.notes = append(o.notes, fmt.Sprintf("cashd: %d sessions of %d tenants open-loop at %.0f/s, %dx%d slots, %v epochs; max generator lag %.2fms",
		len(epochs), cashdTenants, cashdRate, cashdChips, cashdSlots, cashdEpoch, maxOf(lagMax)))
	return o, nil
}
