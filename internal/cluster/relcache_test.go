package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/spatial"
)

// counter reads one of the coordinator's cluster_relation_* counters.
func (tc *testCluster) counter(name string) int64 {
	return tc.coord.cfg.Metrics.Counter(name).Value()
}

// relationBytes is the packed size of a spec's relations — what one
// cold worker receives.
func relationBytes(spec SessionSpec) int64 {
	var n int64
	for _, rd := range spec.Relations {
		n += int64(len(rd.Items))
	}
	return n
}

// runMatching runs spec on the cluster and asserts tuples and hash
// bit-identical to the in-process engine.
func runMatching(t *testing.T, tc *testCluster, spec SessionSpec) *RunResult {
	t.Helper()
	want := inProcessReference(t, spec)
	got, err := tc.coord.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Fatalf("cluster tuples diverge from in-process (%d vs %d)", len(got.Tuples), len(want.Tuples))
	}
	if h := hashTuples(want.Tuples); got.Hash != h {
		t.Fatalf("cluster hash %s, in-process %s", got.Hash, h)
	}
	return got
}

// shipDelta tracks the relation counters across one step of a test.
type shipDelta struct {
	tc            *testCluster
	shipped, hits int64
}

func (tc *testCluster) mark() shipDelta {
	return shipDelta{tc, tc.counter("cluster_relation_bytes_shipped_total"), tc.counter("cluster_relation_cache_hits_total")}
}

// expect asserts the counters moved by exactly shipped bytes and hits
// since the mark.
func (d shipDelta) expect(t *testing.T, step string, shipped, hits int64) {
	t.Helper()
	gotShipped := d.tc.counter("cluster_relation_bytes_shipped_total") - d.shipped
	gotHits := d.tc.counter("cluster_relation_cache_hits_total") - d.hits
	if gotShipped != shipped || gotHits != hits {
		t.Errorf("%s: shipped %d bytes with %d cache hits, want %d bytes with %d hits", step, gotShipped, gotHits, shipped, hits)
	}
}

// TestRelationCacheBackToBack runs two sessions over the same relations
// — the second ships nothing — then re-registers one relation under
// its old name with new content, which ships again.
func TestRelationCacheBackToBack(t *testing.T) {
	const workers = 2
	tc := startTestCluster(t, workers, nil)

	spec := testSpec("2-way-cascade")
	d := tc.mark()
	runMatching(t, tc, spec)
	d.expect(t, "cold session", workers*relationBytes(spec), 0)

	d = tc.mark()
	runMatching(t, tc, testSpec("c-rep"))
	d.expect(t, "warm session", 0, workers*3)

	// The cached items are the relations' exact content after sessions
	// have run on them.
	for _, w := range tc.workers {
		w.mu.Lock()
		held := w.held
		w.mu.Unlock()
		if len(held) != 3 {
			t.Fatalf("worker %s holds %d relations, want 3", w.cfg.Name, len(held))
		}
		for hash, items := range held {
			if got := PackRelation(spatial.Relation{Items: items}).Hash; got != hash {
				t.Errorf("worker %s: cached relation %s now hashes to %s", w.cfg.Name, hash, got)
			}
		}
	}

	// R2 re-registered with new content: only R2 travels.
	rels := testRelations(2013, 3, 100)
	rels[1] = testRelations(77, 2, 100)[1]
	newSpec := SpecFromConfig(mustMethod("2-way-cascade"), "R1 ov R2 and R2 ra(40) R3", rels,
		spatial.Config{Reducers: 16, NumMappers: 6, Parallelism: 3})
	if newSpec.Relations[1].Hash == spec.Relations[1].Hash {
		t.Fatal("new R2 content hashes like the old")
	}
	d = tc.mark()
	runMatching(t, tc, newSpec)
	d.expect(t, "re-registered R2", workers*int64(len(newSpec.Relations[1].Items)), workers*2)
}

// TestRelationCacheRecovery kills a worker in a session that started
// from a warm cache: the retry re-ships to the survivors, and a
// replacement worker that registers afterwards receives the data.
func TestRelationCacheRecovery(t *testing.T) {
	victim := 2
	tc := startTestCluster(t, 3, func(i int, wc *WorkerConfig) {
		if i == victim {
			// All-replicate is one job of three exchanges, so the
			// warm-up survives; the cascade dies mid round two.
			wc.DieAfterExchanges = 4
			wc.DieInProcess = true
		}
	})

	warm := testSpec("all-replicate")
	runMatching(t, tc, warm)

	spec := testSpec("2-way-cascade")
	d := tc.mark()
	got := runMatching(t, tc, spec)
	if got.Attempts != 2 || got.Workers != 2 {
		t.Fatalf("recovered run: %d attempts on %d workers, want 2 on 2", got.Attempts, got.Workers)
	}
	// Attempt 0 named all three relations by hash on all three workers;
	// attempt 1 shipped them in full to both survivors.
	d.expect(t, "recovered session", 2*relationBytes(spec), 3*3)

	// A replacement under the dead worker's name registers as a new
	// member, so it is sent every relation; the survivors are not.
	tc.addWorker(t, "w2", nil)
	if err := tc.coord.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	d = tc.mark()
	if got := runMatching(t, tc, spec); got.Workers != 3 {
		t.Fatalf("run after replacement used %d workers, want 3", got.Workers)
	}
	d.expect(t, "replacement worker", relationBytes(spec), 2*3)
}

// TestRelationCacheMissFailsAttempt makes the coordinator believe the
// workers hold relations they never received: the hash-only start is
// rejected with a clear error, and the next run ships again.
func TestRelationCacheMissFailsAttempt(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	spec := testSpec("c-rep")
	for _, m := range tc.coord.aliveMembers() {
		m.held = map[string]bool{spec.Relations[0].Hash: true}
	}
	_, err := tc.coord.Run(spec)
	if err == nil || !strings.Contains(err.Error(), "does not hold hash") {
		t.Fatalf("hash-only start for an unheld relation: err = %v", err)
	}
	d := tc.mark()
	runMatching(t, tc, spec)
	d.expect(t, "run after the rejected start", 2*relationBytes(spec), 0)
}

func TestResolveRelationsRejects(t *testing.T) {
	rd := PackRelation(testRelations(7, 1, 20)[0])
	cases := []struct {
		name string
		rd   RelationData
		want string
	}{
		{"unheld hash", RelationData{Name: rd.Name, Hash: rd.Hash}, "does not hold hash"},
		{"tampered items", RelationData{Name: rd.Name, Hash: rd.Hash, Items: append([]byte{1}, rd.Items[1:]...)}, "shipped items hash to"},
		{"missing hash", RelationData{Name: rd.Name, Items: rd.Items}, "shipped items hash to"},
	}
	for _, tc := range cases {
		w := &Worker{cfg: WorkerConfig{Name: "w0"}}
		_, err := w.resolveRelations(&SessionSpec{Relations: []RelationData{tc.rd}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if w.held != nil {
			t.Errorf("%s: a rejected start left %d relations cached", tc.name, len(w.held))
		}
	}

	// A shipped relation is cached; naming it by hash then resolves, and
	// an empty relation needs no cache at all.
	w := &Worker{cfg: WorkerConfig{Name: "w0"}}
	empty := PackRelation(spatial.Relation{Name: "E"})
	if _, err := w.resolveRelations(&SessionSpec{Relations: []RelationData{rd, empty}}); err != nil {
		t.Fatal(err)
	}
	rels, err := w.resolveRelations(&SessionSpec{Relations: []RelationData{{Name: "renamed", Hash: rd.Hash}}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := UnpackRelation(rd)
	if rels[0].Name != "renamed" || !reflect.DeepEqual(rels[0].Items, want.Items) {
		t.Errorf("hash-only relation resolved to %q with %d items", rels[0].Name, len(rels[0].Items))
	}
}
