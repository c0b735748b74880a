package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/spatial"
)

// fingerprints returns every relation's content fingerprint, in a
// stable order, for all of a seed's generated inputs.
func fingerprints(t *testing.T, seed uint64) []uint64 {
	t.Helper()
	var out []uint64
	add := func(rels []spatial.Relation, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range rels {
			out = append(out, dataset.Fingerprint(rel))
		}
	}
	add(uniformRelations(2_000, 3, seed))
	add(zipfRelations([]string{"R1", "R2", "R3"}, 2_000, seed))
	svc, err := serviceRelations(2_000, seed)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(svc))
	for name := range svc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(svc[name], nil)
	}
	return out
}

func ops(seed uint64, c, n int) []serviceOp {
	next := opStream(seed, c)
	out := make([]serviceOp, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, other := fingerprints(t, 11), fingerprints(t, 11), fingerprints(t, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different relations")
	}
	for i := range a {
		if a[i] == other[i] {
			t.Errorf("relation %d is identical under seeds 11 and 12", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] == a[i-1] {
			t.Errorf("relations %d and %d are identical", i-1, i)
		}
	}

	for c := 0; c < serviceClients; c++ {
		if !reflect.DeepEqual(ops(11, c, 500), ops(11, c, 500)) {
			t.Fatalf("client %d: the same seed generated different operation streams", c)
		}
		if reflect.DeepEqual(ops(11, c, 500), ops(12, c, 500)) {
			t.Fatalf("client %d: seeds 11 and 12 generated the same operation stream", c)
		}
	}
	if reflect.DeepEqual(ops(11, 0, 500), ops(11, 1, 500)) {
		t.Fatal("both clients got the same operation stream")
	}
	var rereg int
	for _, op := range ops(11, 0, 4000) {
		if op.reregister {
			rereg++
		}
	}
	if rereg < 400 || rereg > 600 {
		t.Errorf("%d of 4000 operations re-register, want about one in %d", rereg, reregisterOneIn)
	}
}

func TestTupleHashIgnoresOrder(t *testing.T) {
	ts := []spatial.Tuple{{IDs: []int32{1, 2, 3}}, {IDs: []int32{4, 5, 6}}, {IDs: []int32{1, 2, 4}}}
	rev := []spatial.Tuple{ts[2], ts[1], ts[0]}
	if hashTuples(ts) != hashTuples(rev) {
		t.Fatal("hash depends on tuple order")
	}
	if hashTuples(ts) == hashTuples(ts[:2]) {
		t.Fatal("hash ignores a missing tuple")
	}
	swapped := []spatial.Tuple{{IDs: []int32{2, 1, 3}}, ts[1], ts[2]}
	if hashTuples(ts) == hashTuples(swapped) {
		t.Fatal("hash ignores slot order within a tuple")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload for one operation per caller, untraced
// and traced, and requires correct results and the full metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full scale")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1e-3, trace: traced, workdir: t.TempDir(), setups: 1}
			res, err := measure(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t, %d of %d operations failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				// Loopback figures are left out when something else
				// uses loopback during the test.
				if !ok && (d.name == "cluster.loopback_mb" || d.name == "cluster.shuffle_share") {
					continue
				}
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or without unit %s", name, traced, d.name, d.unit)
				}
			}
		}
	}
}
