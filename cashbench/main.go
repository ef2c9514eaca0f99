// Command cashbench is the repository's end-to-end benchmark. It drives
// the CASH reproduction's layers through their public functions, times
// them from outside, checks every output against a reference, and
// prints one JSON result line:
//
//	python3 cashbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
//
// Workloads: sweep (cold oracle characterisation), reproduce (the Fig 7
// and tail-study cells on a warm oracle) and cashd (an in-process daemon
// under open-loop submits). --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics of a traced run. It runs from
// the root of the repository; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// record writes this run's output digests as the seed's reference
	// into refsDir.
	record bool
}

// outDir receives the characterisation caches, output digests and span
// logs; refsDir holds the recorded references. Both are relative to the
// root of the checkout the benchmark runs from.
var (
	outDir  = filepath.Join(".bench_build", "cashbench")
	refsDir = filepath.Join("cashbench", "refs")
)

// subSeeds is how many input sets a run cycles through: repetition i
// runs the inputs of subSeed(seed, i%subSeeds). Input sets differ in how
// much work they carry, so a run's medians mix several of them and stay
// comparable from one seed to the next.
const subSeeds = 16

// subSeed derives input set k's nonzero generator seed from the
// benchmark seed (SplitMix64; the engines read a zero seed as "use the
// default").
func subSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// minReps is how many repetitions a run makes however short --seconds
// is: two, so a traced run has one of each kind, or every input set
// when recording references.
func (c config) minReps() int {
	if c.record {
		return subSeeds
	}
	return 2
}

// inputSet is the input set repetition i of a run uses. A traced run
// alternates untraced and traced repetitions; each pair shares an input
// set, so the tracing overhead compares like with like.
func inputSet(i int, traced bool) int {
	if traced {
		i /= 2
	}
	return i % subSeeds
}

// setKey prefixes an operation key with its input set.
func setKey(k int, key string) string { return fmt.Sprintf("s%d/%s", k, key) }

// outcome is what one workload run measured.
type outcome struct {
	// setup holds one set-up duration (seconds) per repetition.
	setup []float64
	// walls holds one timed-phase wall-clock (seconds) per iteration.
	walls []float64
	// land holds, per operation, the milliseconds from when it was due
	// until its result was available; a refused operation records +Inf
	// so it misses every limit.
	land []float64
	// attempted and failed count operations and failed checks.
	attempted, failed int64
	// digests maps each operation key to its output digest (first
	// iteration), for recording and for held-out-seed comparison.
	digests map[string]string
	// hasRef tells whether digests were checked against a recorded
	// reference or only for run-to-run determinism.
	hasRef bool
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// spans is the traced run's span log.
	spans []span
	// notes are human-readable lines printed before the result.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep, reproduce or cashd")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&cfg.record, "record", false, "record this run's output digests as the seed's reference")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("creating %s: %v", outDir, err)
	}

	var run func(config) (*outcome, error)
	switch cfg.workload {
	case "sweep":
		run = runSweep
	case "reproduce":
		run = runReproduce
	case "cashd":
		run = runCashd
	default:
		fatalf("unknown workload %q (want sweep, reproduce or cashd)", cfg.workload)
	}

	st := hostStamp()
	fmt.Printf("# stamp %s\n", mustJSON(st))
	out, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	if err := finish(cfg, st, out); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if cfg.trace {
		res.Metrics = out.layers
	} else {
		res.Metrics = endToEnd(out)
	}
	if res.Attempted < 1 {
		fatalf("%s: no operation attempted", cfg.workload)
	}
	fmt.Println(mustJSON(res))
}

// endToEnd reduces an outcome to the end-to-end metrics every workload
// reports. Times are medians over repetitions; the latency tail is the
// pooled p95 (finish prints the p99 too).
func endToEnd(o *outcome) map[string]metric {
	okFrac := 1 - float64(o.failed)/float64(o.attempted)
	return map[string]metric{
		"setup_s":     {median(o.setup), "s"},
		"wall_s":      {median(o.walls), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"land_p50_ms": {quantile(o.land, 0.50), "ms"},
		"land_p95_ms": {quantile(o.land, 0.95), "ms"},
		"ok_frac":     {okFrac, "frac"},
	}
}

// finish prints the sample counts behind the latency tails and writes
// the output digests, the stamp and (traced runs) the span log.
func finish(cfg config, st stamp, o *outcome) error {
	fmt.Printf("# land latency (ms): n=%d, p%.2f is the highest percentile with >=10 samples beyond; p50 %.4g p90 %.4g p95 %.4g p99 %.4g\n",
		len(o.land), 100*supportedQuantile(len(o.land)),
		quantile(o.land, 0.5), quantile(o.land, 0.9), quantile(o.land, 0.95), quantile(o.land, 0.99))
	if cfg.record {
		if err := writeRef(refsDir, cfg.workload, cfg.seed, o.digests); err != nil {
			return err
		}
		fmt.Printf("# recorded %d reference digests for seed %d in %s\n", len(o.digests), cfg.seed, refsDir)
	}
	if !o.hasRef && !cfg.record {
		fmt.Printf("# seed %d has no recorded reference: outputs checked for determinism only\n", cfg.seed)
	}
	keys := make([]string, 0, len(o.digests))
	for k := range o.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dig := struct {
		Stamp    stamp             `json:"stamp"`
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Combined string            `json:"combined"`
		Digests  map[string]string `json:"digests"`
	}{st, cfg.workload, cfg.seed, combineDigests(o.digests), o.digests}
	path := filepath.Join(outDir, fmt.Sprintf("digests-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, append(mustJSONIndent(dig), '\n'), 0o644); err != nil {
		return fmt.Errorf("writing digests: %w", err)
	}
	fmt.Printf("# output digest %s (%d operations) written to %s\n", dig.Combined, len(keys), path)
	if cfg.trace {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return err
		}
	}
	return nil
}

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit and Dirty come from git when the checkout is a git work
	// tree ("none" otherwise); Source digests the Go sources either way.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	Source string `json:"source"`
	Time   string `json:"time"`
}

func hostStamp() stamp {
	commit, dirty := gitState(".")
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Dirty:      dirty,
		Source:     sourceDigest("."),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func mustJSONIndent(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cashbench: "+format+"\n", args...)
	os.Exit(1)
}
