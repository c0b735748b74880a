package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mwsjoin"
	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// The two chain queries: Q2 is the paper's overlap chain, Q4 mixes an
// overlap with a range join.
const (
	q2Text = "R1 ov R2 and R2 ov R3"
	q4Text = "R1 ov R2 and R2 ra(100) R3"
)

// reducers is the reducer count of every workload, the paper's 8×8
// grid and the command-line default.
const reducers = 64

// engineQuery is a closed-loop workload of one caller that runs one
// query through the in-process engine, as the mwsjoin command does.
type engineQuery struct {
	q      *mwsjoin.Query
	method mwsjoin.Method
	opts   mwsjoin.Options
	// paths, when set, are relation files read on every query; rels
	// otherwise holds the relations in memory.
	paths      []string
	fileBytes  int64
	rels       []mwsjoin.Relation
	inputRects int
	want       tupleHash
}

// newUniformQ2 is q2-uniform-200k: Q2 over three uniform relations of
// 200,000 rectangles, read from relation text files on every query and
// joined with the 2-way Cascade. The reference is C-Rep-L.
func newUniformQ2(seed uint64, workdir string) (workload, error) {
	rels, err := uniformRelations(unit200k, 3, seed)
	if err != nil {
		return nil, err
	}
	w := &engineQuery{method: mwsjoin.Cascade, opts: mwsjoin.Options{Reducers: reducers}}
	for _, rel := range rels {
		path := filepath.Join(workdir, rel.Name+".txt")
		rects := make([]geom.Rect, len(rel.Items))
		for i, it := range rel.Items {
			rects[i] = it.R
		}
		if err := dataset.WriteFile(path, rects); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		w.paths = append(w.paths, path)
		w.fileBytes += fi.Size()
	}
	w.q, w.want, err = reference(q2Text, rels, spatial.ControlledReplicateLimit, spatial.Config{Reducers: reducers})
	w.inputRects = countRects(rels)
	return w, err
}

// newZipfQ4 is q4-zipf-20k: Q4 over three Zipf-clustered relations of
// 20,000 rectangles held in memory, joined with C-Rep-L on the adaptive
// partition. The reference is the 2-way Cascade on the uniform grid.
func newZipfQ4(seed uint64, _ string) (workload, error) {
	rels, err := zipfRelations([]string{"R1", "R2", "R3"}, unit20k, seed)
	if err != nil {
		return nil, err
	}
	w := &engineQuery{
		method:     mwsjoin.ControlledReplicateLimit,
		opts:       mwsjoin.Options{Reducers: reducers, Partition: "adaptive"},
		rels:       rels,
		inputRects: countRects(rels),
	}
	w.q, w.want, err = reference(q4Text, rels, spatial.Cascade, spatial.Config{Reducers: reducers})
	return w, err
}

// reference parses the query and computes the reference tuple hash
// with another method, or another engine, than the one under test.
func reference(text string, rels []spatial.Relation, m spatial.Method, cfg spatial.Config) (*query.Query, tupleHash, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, tupleHash{}, err
	}
	ref, err := spatial.Execute(m, q, rels, cfg)
	if err != nil {
		return nil, tupleHash{}, fmt.Errorf("reference %v for %q: %w", m, text, err)
	}
	return q, hashTuples(ref.Tuples), nil
}

func countRects(rels []spatial.Relation) int {
	n := 0
	for _, rel := range rels {
		n += len(rel.Items)
	}
	return n
}

func (w *engineQuery) start() error { return warmUp(w) }
func (w *engineQuery) stop()        {}
func (w *engineQuery) callers() int { return 1 }

func (w *engineQuery) op(_ int, traced bool, rec *recorder) {
	opts := w.opts
	if traced {
		opts.Tracer = mwsjoin.NewTracer()
	}
	t0 := time.Now()
	rels := w.rels
	var parse time.Duration
	if w.paths != nil {
		rels = make([]mwsjoin.Relation, len(w.paths))
		for i, path := range w.paths {
			t := time.Now()
			rel, err := mwsjoin.ReadRelationFile(path, path)
			parse += time.Since(t)
			if err != nil {
				rec.fail(err)
				return
			}
			rels[i] = rel
		}
	}
	t1 := time.Now()
	res, err := mwsjoin.RunContext(context.Background(), w.q, rels, w.method, &opts)
	done := time.Now()
	if err != nil {
		rec.fail(err)
		return
	}
	rec.query(t0, done, traced, checkHash(hashTuples(res.Tuples), w.want))
	execute := done.Sub(t1)
	if w.paths != nil {
		rec.layer("dataset.parse_s", parse.Seconds())
		rec.layer("dataset.parse_mb_per_s", float64(w.fileBytes)/1e6/parse.Seconds())
	}
	rec.layer("spatial.execute_s", execute.Seconds())
	recordStats(rec, &res.Stats, w.inputRects)
	if traced {
		recordSpans(rec, sumSpans(opts.Tracer.Spans()), execute)
	}
}

func (w *engineQuery) finish(*recorder) error { return nil }

// warmUp runs one untimed operation of every caller and fails set-up
// if any of them failed.
func warmUp(w workload) error {
	rec := newRecorder()
	for c := 0; c < w.callers(); c++ {
		w.op(c, false, rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up query: %s", rec.errs[0])
	}
	return nil
}
