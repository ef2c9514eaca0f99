package main

import (
	"embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the seed whose outputs are recorded under refs/.
const defaultSeed = 1

//go:embed refs
var refsFS embed.FS

// loadRef returns the recorded digests of a workload at a seed, or nil
// when none were recorded.
func loadRef(workload string, seed uint64) (map[string]string, error) {
	b, err := refsFS.ReadFile(refName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("decoding reference %s: %w", refName(workload, seed), err)
	}
	return ref, nil
}

func refName(workload string, seed uint64) string {
	return fmt.Sprintf("refs/%s-seed%d.json", workload, seed)
}

// writeRef stores digests as a workload's reference for a seed.
func writeRef(dir, workload string, seed uint64, digests map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, filepath.Base(refName(workload, seed)))
	return os.WriteFile(path, append(mustJSONIndent(digests), '\n'), 0o644)
}

// checker compares each operation's output digest with the reference,
// or — for a seed without one — with the first iteration's digest, so
// every repetition must reproduce the same output either way.
type checker struct {
	ref     map[string]string // nil: no reference recorded for the seed
	first   map[string]string
	ops     int64
	failed  int64
	failMsg []string
}

func newChecker(workload string, seed uint64) (*checker, error) {
	ref, err := loadRef(workload, seed)
	if err != nil {
		return nil, err
	}
	return &checker{ref: ref, first: map[string]string{}}, nil
}

// check counts one operation and reports whether its digest matches.
// An operation that is absent from the reference fails too.
func (c *checker) check(key, digest string) bool {
	c.ops++
	want, ok := c.first[key]
	if !ok {
		c.first[key] = digest
		want, ok = digest, true
	}
	if c.ref != nil {
		want, ok = c.ref[key]
	}
	if !ok || want != digest {
		c.fail(fmt.Sprintf("%s: digest %s, want %s", key, digest, want))
		return false
	}
	return true
}

// failOp counts one operation that failed before producing an output.
func (c *checker) failOp(msg string) {
	c.ops++
	c.fail(msg)
}

// fail counts a failed check of an operation already counted.
func (c *checker) fail(msg string) {
	c.failed++
	if len(c.failMsg) < 8 {
		c.failMsg = append(c.failMsg, msg)
	}
}

// finish copies the checker's tallies into the outcome. Operations a
// run never reached are not failures: a run covers as many input sets as
// its time allows, and each workload counts an operation that could not
// run as failed where it happens.
func (c *checker) finish(o *outcome) {
	o.attempted += c.ops
	o.failed += c.failed
	o.digests = c.first
	o.hasRef = c.ref != nil
	for _, m := range c.failMsg {
		o.notes = append(o.notes, "FAIL "+m)
	}
}

// digest folds integers and float bit patterns into an FNV-1a hash.
type digest struct{ b []byte }

func (d *digest) u64(v uint64) *digest {
	d.b = binary.LittleEndian.AppendUint64(d.b, v)
	return d
}

func (d *digest) i64(v int64) *digest { return d.u64(uint64(v)) }

func (d *digest) f64(v float64) *digest { return d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) *digest {
	d.u64(uint64(len(s)))
	d.b = append(d.b, s...)
	return d
}

func (d *digest) sum() string {
	h := fnv.New64a()
	h.Write(d.b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// combineDigests folds per-operation digests, in key order, into one.
func combineDigests(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var d digest
	for _, k := range keys {
		d.str(k).str(m[k])
	}
	return d.sum()
}
