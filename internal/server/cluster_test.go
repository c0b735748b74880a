package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/metrics"
)

// startTestCoordinator brings up a coordinator plus n in-process
// workers on loopback for server-dispatch tests.
func startTestCoordinator(t *testing.T, n int, reg *metrics.Registry) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.StartCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		SessionTimeout:   time.Minute,
		Metrics:          reg,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for i := 0; i < n; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator:       coord.Addr(),
			Name:              []string{"cw0", "cw1", "cw2"}[i],
			HeartbeatInterval: 100 * time.Millisecond,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	if err := coord.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestServerClusterDispatch runs the same query through a plain
// in-process server and through a server dispatching to a 3-worker
// loopback cluster, asserting identical tuples and the cluster-only
// observability surface.
func TestServerClusterDispatch(t *testing.T) {
	req := SubmitRequest{Query: "A ov B and B ra(40) C", Method: "c-rep"}

	plain, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	want := waitJob(t, plain, submit(t, plain, req).ID)
	if want.State != StateDone {
		t.Fatalf("in-process job: %+v", want)
	}
	wantPage, err := plain.Result(want.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	coord := startTestCoordinator(t, 3, reg)
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1, Cluster: coord, Metrics: reg})
	got := waitJob(t, s, submit(t, s, req).ID)
	if got.State != StateDone {
		t.Fatalf("cluster job: %+v (err %s)", got, got.Error)
	}
	gotPage, err := s.Result(got.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPage.Tuples, wantPage.Tuples) {
		t.Errorf("cluster tuples diverge from in-process (%d vs %d)", len(gotPage.Tuples), len(wantPage.Tuples))
	}

	// Cluster jobs have no local execution profile.
	if _, err := s.Profile(got.ID); !errors.Is(err, ErrNoProfile) {
		t.Errorf("Profile(cluster job) = %v, want ErrNoProfile", err)
	}

	// Status gains the workers section; gauges track the roster.
	info := s.StatusInfo()
	if info.Workers == nil || info.Workers.Count != 3 || info.Workers.Alive != 3 || info.Workers.Dead != 0 {
		t.Fatalf("status workers section: %+v", info.Workers)
	}
	for _, ws := range info.Workers.Workers {
		if ws.LastHeartbeatMillis < 0 || ws.LastHeartbeatMillis > 5000 {
			t.Errorf("worker %s heartbeat age %dms", ws.Name, ws.LastHeartbeatMillis)
		}
		if ws.Sessions == 0 {
			t.Errorf("worker %s reports no completed sessions", ws.Name)
		}
	}
	if v := reg.Gauge("server_workers_alive").Value(); v != 3 {
		t.Errorf("server_workers_alive = %d, want 3", v)
	}

	// GET /v1/workers serves the same section over HTTP.
	h := NewHandler(s, reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workers", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/workers = %d: %s", rec.Code, rec.Body)
	}
	var cw ClusterWorkers
	if err := json.Unmarshal(rec.Body.Bytes(), &cw); err != nil {
		t.Fatal(err)
	}
	if cw.Count != 3 || len(cw.Workers) != 3 {
		t.Errorf("GET /v1/workers: %+v", cw)
	}

	// Without a cluster, the endpoint 404s.
	hPlain := NewHandler(plain, nil)
	rec = httptest.NewRecorder()
	hPlain.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workers", nil))
	if rec.Code != 404 {
		t.Errorf("GET /v1/workers without cluster = %d", rec.Code)
	}
}

// TestServerClusterRelationCache submits two different queries over
// the same registered relations to a 2-worker cluster: the relations
// travel once, and the daemon's /metrics shows the second query's
// cache hits.
func TestServerClusterRelationCache(t *testing.T) {
	const workers = 2
	first := SubmitRequest{Query: "A ov B and B ra(40) C", Method: "c-rep"}
	second := SubmitRequest{Query: "A ov B and B ov C", Method: "2-way-cascade"}

	plain, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	want := waitJob(t, plain, submit(t, plain, second).ID)
	wantPage, err := plain.Result(want.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	coord := startTestCoordinator(t, workers, reg)
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1, Cluster: coord, Metrics: reg})
	shipped := reg.Counter("cluster_relation_bytes_shipped_total")
	hits := reg.Counter("cluster_relation_cache_hits_total")

	if got := waitJob(t, s, submit(t, s, first).ID); got.State != StateDone {
		t.Fatalf("first cluster job: %+v (err %s)", got, got.Error)
	}
	var relBytes int64
	for _, rel := range testRelations(1)[:3] {
		relBytes += int64(len(cluster.PackRelation(rel).Items))
	}
	if shipped.Value() != workers*relBytes || hits.Value() != 0 {
		t.Fatalf("first query shipped %d bytes with %d cache hits, want %d with 0", shipped.Value(), hits.Value(), workers*relBytes)
	}

	got := waitJob(t, s, submit(t, s, second).ID)
	if got.State != StateDone {
		t.Fatalf("second cluster job: %+v (err %s)", got, got.Error)
	}
	gotPage, err := s.Result(got.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPage.Tuples, wantPage.Tuples) {
		t.Errorf("cluster tuples diverge from in-process (%d vs %d)", len(gotPage.Tuples), len(wantPage.Tuples))
	}
	if shipped.Value() != workers*relBytes || hits.Value() != workers*3 {
		t.Errorf("after the second query: %d bytes shipped with %d cache hits, want %d with %d", shipped.Value(), hits.Value(), workers*relBytes, workers*3)
	}

	rec := httptest.NewRecorder()
	NewHandler(s, reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, line := range []string{
		fmt.Sprintf("cluster_relation_bytes_shipped_total %d\n", workers*relBytes),
		fmt.Sprintf("cluster_relation_cache_hits_total %d\n", workers*3),
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
