package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestCheckerCatchesWrongReference feeds a checker the recorded outputs
// of every workload against a reference with one digest corrupted and
// one operation removed: exactly those two operations must fail.
func TestCheckerCatchesWrongReference(t *testing.T) {
	for _, w := range []string{"sweep", "reproduce", "cashd"} {
		ref, err := loadRef(w, defaultSeed)
		if err != nil || len(ref) == 0 {
			t.Fatalf("%s: no reference recorded for seed %d (%v)", w, defaultSeed, err)
		}
		keys := sortedKeys(ref)

		good := &checker{ref: ref, first: map[string]string{}}
		for _, k := range keys {
			good.check(k, ref[k])
		}
		var o outcome
		good.finish(&o)
		if o.failed != 0 || o.attempted != int64(len(keys)) {
			t.Fatalf("%s: correct outputs: %d of %d failed", w, o.failed, o.attempted)
		}

		wrong := make(map[string]string, len(ref))
		for k, v := range ref {
			wrong[k] = v
		}
		wrong[keys[0]] = "0000000000000000"
		delete(wrong, keys[len(keys)-1])
		bad := &checker{ref: wrong, first: map[string]string{}}
		for _, k := range keys {
			bad.check(k, ref[k])
		}
		o = outcome{}
		bad.finish(&o)
		if o.failed != 2 || o.attempted != int64(len(keys)) {
			t.Fatalf("%s: wrong reference: %d of %d failed, want 2 of %d", w, o.failed, o.attempted, len(keys))
		}
	}
}

// TestSweepCatchesWrongReference runs a real cold sweep and checks it
// against the recorded reference, then against one with a single
// characterisation altered.
func TestSweepCatchesWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cold sweep")
	}
	ref, err := loadRef("sweep", defaultSeed)
	if err != nil || ref == nil {
		t.Fatalf("no sweep reference for seed %d (%v)", defaultSeed, err)
	}
	it, err := coldSweep(subSeed(defaultSeed, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := &checker{ref: ref, first: map[string]string{}}
	checkSweep(&it, 0, ck)
	if ck.failed != 0 {
		t.Fatalf("sweep at seed %d disagrees with its reference: %v", defaultSeed, ck.failMsg)
	}
	wrong := make(map[string]string, len(ref))
	for k, v := range ref {
		wrong[k] = v
	}
	wrong[setKey(0, "mcf/2s/512KB")] = "ffffffffffffffff"
	ck = &checker{ref: wrong, first: map[string]string{}}
	checkSweep(&it, 0, ck)
	if ck.failed != 1 {
		t.Fatalf("altered reference: %d failures, want 1 (%v)", ck.failed, ck.failMsg)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{attempted: 1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, e := range spec.EndToEnd {
		if m, ok := e2e[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("end-to-end %s (%s): program reports %+v", e.Name, e.Unit, m)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layerUnits))
	}
	for i, e := range spec.PerLayer {
		if e.Name != layerUnits[i].name || e.Unit != layerUnits[i].unit {
			t.Errorf("per-layer #%d: BENCHMARK.json %s (%s), program %s (%s)",
				i, e.Name, e.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
