package main

import (
	"fmt"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/spatial"
)

// clusterWorkers is the worker count of q2-cluster-2w-200k. Each worker
// runs one task at a time, so on a two-core machine the cluster has the
// cores the in-process engine has.
const clusterWorkers = 2

// clusterQ2 is q2-cluster-2w-200k: the data, query and method of
// q2-uniform-200k, run on a coordinator and two workers that shuffle
// over loopback TCP inside this process. The reference is the
// in-process engine.
type clusterQ2 struct {
	rels       []spatial.Relation
	inputRects int
	want       tupleHash
	// netClean reports that loopback was idle before the run, so
	// per-query loopback deltas count only the cluster's traffic.
	netClean bool

	coord   *cluster.Coordinator
	workers []*cluster.Worker
}

func newClusterQ2(seed uint64, _ string) (workload, error) {
	rels, err := uniformRelations(unit200k, 3, seed)
	if err != nil {
		return nil, err
	}
	w := &clusterQ2{rels: rels, inputRects: countRects(rels)}
	cfg := w.config()
	cfg.Parallelism = 0
	if _, w.want, err = reference(q2Text, rels, spatial.Cascade, cfg); err != nil {
		return nil, err
	}
	w.netClean = loopbackIdle(300 * time.Millisecond)
	return w, nil
}

// config is the engine configuration a session ships to the workers.
// Distributed runs need an explicit mapper count; 8 is the join
// service's default for cluster dispatch.
func (w *clusterQ2) config() spatial.Config {
	return spatial.Config{Reducers: reducers, NumMappers: 8, Parallelism: 1}
}

func (w *clusterQ2) start() error {
	coord, err := cluster.StartCoordinator(cluster.CoordinatorConfig{})
	if err != nil {
		return err
	}
	w.coord = coord
	for i := 0; i < clusterWorkers; i++ {
		wk, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: coord.Addr(), Name: fmt.Sprintf("w%d", i)})
		if err != nil {
			return err
		}
		w.workers = append(w.workers, wk)
	}
	if err := coord.WaitForWorkers(clusterWorkers, 30*time.Second); err != nil {
		return err
	}
	return warmUp(w)
}

func (w *clusterQ2) stop() {
	for _, wk := range w.workers {
		wk.Close()
	}
	w.workers = nil
	if w.coord != nil {
		w.coord.Close()
		w.coord = nil
	}
}

func (w *clusterQ2) callers() int { return 1 }

// op ships the relations and runs one session. Workers return no spans,
// so a traced query reports all of its time as outside any job span.
func (w *clusterQ2) op(_ int, traced bool, rec *recorder) {
	lo0, loErr := loopbackBytes()
	t0 := time.Now()
	spec := cluster.SpecFromConfig(spatial.Cascade, q2Text, w.rels, w.config())
	t1 := time.Now()
	rr, err := w.coord.Run(spec)
	done := time.Now()
	lo1, loErr2 := loopbackBytes()
	if err != nil {
		rec.fail(err)
		return
	}
	rec.query(t0, done, traced, checkHash(hashTuples(rr.Tuples), w.want))
	run := done.Sub(t1)
	rec.layer("cluster.run_s", run.Seconds())
	rec.layer("spatial.execute_s", run.Seconds())
	rec.layer("cluster.attempts", float64(rr.Attempts))
	recordStats(rec, &rr.Stats, w.inputRects)
	if w.netClean && loErr == nil && loErr2 == nil {
		var shuffle int64
		for _, r := range rr.Stats.Rounds {
			shuffle += r.ShuffleNetworkBytes
		}
		rec.layer("cluster.loopback_mb", float64(lo1-lo0)/1e6)
		if lo1 > lo0 {
			rec.layer("cluster.shuffle_share", float64(shuffle)/float64(lo1-lo0))
		}
	}
	if traced {
		recordSpans(rec, spanSums{}, run)
	}
}

func (w *clusterQ2) finish(rec *recorder) error {
	if !w.netClean {
		rec.omit("cluster.loopback_mb")
		rec.omit("cluster.shuffle_share")
	}
	return nil
}
