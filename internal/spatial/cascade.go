package spatial

import (
	"fmt"
	"sync/atomic"
	"time"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/query"
)

// cascade runs the 2-way Cascade baseline (§6.1): the multi-way query
// is evaluated as a left-deep sequence of 2-way map-reduce joins in the
// plan's slot order, with every intermediate result materialised on the
// simulated DFS and read back by the next job — the reading/writing
// cost §6.4 blames for this method's poor performance.
//
// Each step joins the current partial tuples with the next slot's base
// relation along one connecting edge (the plan's primary edge, §5
// style: split the relation; split the — possibly d-enlarged — tuple
// key rectangle), verifies any further connecting edges as filters, and
// de-duplicates with the §5.2/§5.3 rule: the cell containing the
// start-point of the intersection between the (enlarged) key rectangle
// and the new rectangle reports the pair.
type cascadeRecord struct {
	// Exactly one of tuple / item is meaningful; isTuple selects it.
	isTuple bool
	tuple   partial
	item    tagged
}

func cascade(pl *plan, exec *executor) (*Result, error) {
	start := time.Now()

	countOnly := exec.cfg.CountOnly
	if pl.m == 1 {
		// A single-slot query has no join to cascade: emit everything.
		items, err := exec.loadRelation(0)
		if err != nil {
			return nil, err
		}
		var tuples []Tuple
		if !countOnly {
			tuples = make([]Tuple, len(items))
			for i, it := range items {
				tuples[i] = Tuple{IDs: []int32{it.ID}}
			}
		}
		return &Result{Tuples: tuples, Stats: Stats{
			Method: Cascade, OutputTuples: int64(len(items)), Wall: time.Since(start),
		}}, nil
	}

	// The cascade is a checkpointed chain: step p-1 of the chain runs
	// round p's 2-way join and commits the resulting partial tuples to
	// the DFS (the materialisation §6.4 blames); the next step reads
	// them back as its input. A run killed by Config.FailJob leaves the
	// completed checkpoints behind, and a Resume run on the same FS
	// skips every completed round, reusing its recorded Stats.
	ch := exec.chain("cascade")
	var rounds []*mapreduce.Stats
	var counted atomic.Int64
	for p := 1; p < pl.m; p++ {
		newSlot := pl.order[p]
		// One round span per cascade step: the 2-way join job plus its
		// checkpoint traffic (the previous checkpoint's read-back lands
		// in this step's round; its own output write is charged here).
		roundSpan := exec.beginRound(fmt.Sprintf("step-%d-%s", p, pl.q.Slots()[newSlot]))
		// On the final step with CountOnly, tuples are counted at the
		// reducers instead of materialised and checkpointed.
		discard := countOnly && p == pl.m-1
		edges := pl.edgesToPrev[p]
		primary := edges[pl.primary[p]]
		// Position (within the partial) of the primary edge's bound
		// endpoint.
		keyPos := planPos(pl, primary.Other(newSlot))
		d := primary.Pred.Weight()

		runStep := func(in [][]byte) ([]partial, *mapreduce.Stats, error) {
			// Current partial tuples over plan.order[:p]: decoded from
			// the previous step's checkpoint, or — on the first step,
			// which has no predecessor — the first slot's items as
			// 1-member partials. All input loading happens inside the
			// step closure so a resumed run charges none of it.
			var current []partial
			if p == 1 {
				firstItems, err := exec.loadRelation(pl.order[0])
				if err != nil {
					return nil, nil, err
				}
				current = make([]partial, len(firstItems))
				for i, it := range firstItems {
					current[i] = partial{IDs: []int32{it.ID}, Rects: []geom.Rect{it.Rect}}
				}
			} else {
				current = make([]partial, 0, len(in))
				for _, rec := range in {
					t, err := decodePartial(rec)
					if err != nil {
						return nil, nil, err
					}
					current = append(current, t)
				}
			}
			items, err := exec.loadRelation(newSlot)
			if err != nil {
				return nil, nil, err
			}
			// Order both inputs by sweep order once per round: the
			// engine's shuffle preserves input order within a key, so
			// every cell's tuples and items arrive at the reducer already
			// ascending by MinX and the plane sweep needs no per-cell
			// re-sort (sweep.JoinSorted). The order is (MinX, input
			// index): ties keep their input order, so each cell receives
			// its records in exactly the (MinX, arrival index) order
			// sweep.Join's own sort produced, and emitted pairs — and
			// therefore all stats and checkpoint bytes — are unchanged.
			// orderByMinX computes it in linear time from extracted keys.
			orderByMinX(current, func(t *partial) float64 { return t.Rects[keyPos].MinX() })
			orderByMinX(items, func(it *tagged) float64 { return it.Rect.MinX() })
			input := make([]cascadeRecord, 0, len(current)+len(items))
			for _, t := range current {
				input = append(input, cascadeRecord{isTuple: true, tuple: t})
			}
			for _, it := range items {
				input = append(input, cascadeRecord{item: it})
			}

			job := &mapreduce.Job[cascadeRecord, grid.CellID, cascadeRecord, partial]{
				Config: exec.jobConfig(fmt.Sprintf("cascade-%d-%s", p, pl.q.Slots()[newSlot])),
				Map: func(rec cascadeRecord, emit func(grid.CellID, cascadeRecord)) error {
					if rec.isTuple {
						key := rec.tuple.Rects[keyPos]
						if d > 0 {
							key = key.Enlarge(d)
						}
						exec.part.ForEachSplit(key, func(c grid.CellID) { emit(c, rec) })
					} else {
						exec.part.ForEachSplit(rec.item.Rect, func(c grid.CellID) { emit(c, rec) })
					}
					return nil
				},
				Partition: mapreduce.IdentityPartition[grid.CellID],
				Reduce:    cascadeReduce(pl, exec.part, newSlot, keyPos, edges, primary, discard, &counted, exec.cfg.Metrics),
				PairBytes: func(_ grid.CellID, rec cascadeRecord) int {
					if rec.isTuple {
						return 4 + encodedPartialBytes(len(rec.tuple.IDs))
					}
					return 4 + itemRecordBytes
				},
				EncodePair:   encodeCellCascade,
				DecodePair:   decodeCellCascade,
				EncodeOutput: encodePartialOutput,
				DecodeOutput: decodePartialOutput,
			}
			return job.Run(input)
		}

		stepName := fmt.Sprintf("step-%d-%s", p, pl.q.Slots()[newSlot])
		var st *mapreduce.Stats
		var err error
		if discard {
			// Counted output is consumed in place; a FinalStep commits
			// nothing and therefore re-runs on every resume.
			st, err = ch.FinalStep(stepName, func(in [][]byte) (*mapreduce.Stats, error) {
				_, st, err := runStep(in)
				return st, err
			})
		} else {
			st, err = ch.Step(stepName, func(in [][]byte) ([][]byte, *mapreduce.Stats, error) {
				out, st, err := runStep(in)
				if err != nil {
					return nil, nil, err
				}
				recs := make([][]byte, len(out))
				for i, t := range out {
					recs[i] = encodePartial(t)
				}
				return recs, st, nil
			})
		}
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, st)
		exec.endRound(roundSpan)
	}

	// Convert plan-ordered partials to slot-ordered tuples, reading the
	// final checkpoint back from the DFS — the read a consumer of the
	// cascade's materialised result pays.
	var tuples []Tuple
	if !countOnly {
		recs, err := ch.Output()
		if err != nil {
			return nil, err
		}
		tuples = make([]Tuple, len(recs))
		for i, rec := range recs {
			t, err := decodePartial(rec)
			if err != nil {
				return nil, err
			}
			ids := make([]int32, pl.m)
			for pos, slot := range pl.order {
				ids[slot] = t.IDs[pos]
			}
			tuples[i] = Tuple{IDs: ids}
		}
		counted.Store(int64(len(tuples)))
	}
	cs := ch.Stats()
	return &Result{Tuples: tuples, Stats: Stats{
		Method:       Cascade,
		Rounds:       rounds,
		Chain:        &cs,
		OutputTuples: counted.Load(),
		Wall:         time.Since(start),
	}}, nil
}

// cascadeReduce joins the partial tuples and new-slot items delivered
// to one cell with a forward plane sweep over the tuples' key
// rectangles and the items — the classic SJMR-style in-reducer join
// (§5).
func cascadeReduce(pl *plan, part *grid.Partitioning, newSlot, keyPos int, edges []query.Edge, primary query.Edge, discard bool, counted *atomic.Int64, reg *metrics.Registry) func(grid.CellID, []cascadeRecord, func(partial)) error {
	d := primary.Pred.Weight()
	return func(c grid.CellID, recs []cascadeRecord, emit func(partial)) error {
		var local int64
		defer func() { observeCell(reg, int64(len(recs)), local) }()
		var tuples []partial
		var keys []geom.Rect
		var ids []int32
		var rects []geom.Rect
		for _, rec := range recs {
			if rec.isTuple {
				tuples = append(tuples, rec.tuple)
				keys = append(keys, rec.tuple.Rects[keyPos])
			} else {
				ids = append(ids, rec.item.ID)
				rects = append(rects, rec.item.Rect)
			}
		}
		if len(tuples) == 0 || len(ids) == 0 {
			return nil
		}
		// keys and rects arrive pre-sorted by MinX: the cascade sorts
		// both relations before the job and the shuffle preserves input
		// order within each cell. Dense cells answer through a
		// bulk-loaded R-tree instead of the plane sweep, with identical
		// pair order (see joinSortedDense).
		usedRTree := joinSortedDense(keys, rects, d, pl.rtreeThreshold, func(i, j int) bool {
			t := tuples[i]
			if !cascadeAccepts(pl, t, newSlot, ids[j], rects[j], edges, primary) {
				return true
			}
			// §5.2/§5.3 duplicate avoidance: only the cell owning the
			// start-point of enlKey ∩ item computes the pair.
			enlKey := keys[i]
			if d > 0 {
				enlKey = enlKey.Enlarge(d)
			}
			inter, ok := enlKey.Intersection(rects[j])
			if !ok || part.CellOf(inter.Start()) != c {
				return true
			}
			local++
			if discard {
				counted.Add(1)
				return true
			}
			emit(partial{
				IDs:   append(append([]int32(nil), t.IDs...), ids[j]),
				Rects: append(append([]geom.Rect(nil), t.Rects...), rects[j]),
			})
			return true
		})
		observeCellJoin(reg, usedRTree)
		return nil
	}
}

// observeCellJoin counts which per-cell join path ran — the trace of
// the dense-cell R-tree escalation. Discarded attempts under injected
// reduce faults count again, mirroring observeCell.
func observeCellJoin(reg *metrics.Registry, usedRTree bool) {
	if reg == nil {
		return
	}
	if usedRTree {
		reg.Counter("spatial_cell_rtree_joins_total").Add(1)
	} else {
		reg.Counter("spatial_cell_sweep_joins_total").Add(1)
	}
}

// cascadeAccepts verifies the non-primary connecting edges and
// self-join distinctness for appending item (id, r) to partial t.
func cascadeAccepts(pl *plan, t partial, newSlot int, id int32, r geom.Rect, edges []query.Edge, primary query.Edge) bool {
	for _, e := range edges {
		if e == primary {
			continue // guaranteed by the index probe
		}
		pos := planPos(pl, e.Other(newSlot))
		if !e.Pred.Eval(r, t.Rects[pos]) {
			return false
		}
	}
	if pl.distinct {
		for pos, slot := range pl.order[:len(t.IDs)] {
			if !pl.compatible(slot, t.IDs[pos], newSlot, id) {
				return false
			}
		}
	}
	return true
}

// planPos returns the position of slot within the plan order.
func planPos(pl *plan, slot int) int {
	for pos, s := range pl.order {
		if s == slot {
			return pos
		}
	}
	panic(fmt.Sprintf("spatial: slot %d not in plan order %v", slot, pl.order))
}
