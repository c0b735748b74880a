package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/spatial"
)

// The workloads' scales, in rectangles per relation.
const (
	unit200k = 200_000
	unit20k  = 20_000
)

// subSeed derives the seed of one generator stream from the workload
// seed, so streams of one run never share random draws.
func subSeed(seed uint64, stream uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// uniformRelation generates the paper's uniform synthetic relation at
// the given unit, keeping the paper's density: the space's side shrinks
// by √(unit/10⁶) while rectangle dimensions keep their absolute range.
func uniformRelation(name string, unit int, seed uint64) (spatial.Relation, error) {
	s := math.Sqrt(float64(unit) / 1e6)
	p := dataset.PaperDefaults(unit)
	p.XMax *= s
	p.YMax *= s
	p.LMax, p.BMax = 100, 100
	return dataset.SyntheticRelation(name, p, seed)
}

// uniformRelations generates n uniform relations R1..Rn.
func uniformRelations(unit, n int, seed uint64) ([]spatial.Relation, error) {
	rels := make([]spatial.Relation, n)
	for i := range rels {
		rel, err := uniformRelation(fmt.Sprintf("R%d", i+1), unit, subSeed(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	return rels, nil
}

// zipfRelations draws n×unit Zipf-clustered rectangles from one
// generator and deals them round-robin into n relations, so every
// relation shares the same cluster centres — the skew the adaptive
// partition exists for — while holding different rectangles.
//
// The generator clamps a rectangle that falls outside the space onto
// its border, so a heavy cluster near the border piles thousands of
// rectangles onto one line; for about one seed in eight that multiplies
// the join output several times over and the workload stops being the
// same size from seed to seed. Those clamped rectangles are dropped and
// replaced by later draws, which cuts such a cluster off at the border
// instead.
func zipfRelations(names []string, unit int, seed uint64) ([]spatial.Relation, error) {
	want := len(names) * unit
	p := dataset.SkewedDefaults(want)
	var kept []geom.Rect
	for p.N = want + want/4; len(kept) < want; p.N *= 2 {
		// The generator's draws do not depend on N, so a larger N only
		// extends the same sequence.
		rects, err := dataset.ZipfClustered(p, seed)
		if err != nil {
			return nil, err
		}
		kept = kept[:0]
		for _, r := range rects {
			if !onBorder(r, zipfSpace) {
				kept = append(kept, r)
			}
		}
	}
	parts := make([][]geom.Rect, len(names))
	for i, r := range kept[:want] {
		parts[i%len(names)] = append(parts[i%len(names)], r)
	}
	rels := make([]spatial.Relation, len(names))
	for i, name := range names {
		rels[i] = spatial.NewRelation(name, parts[i])
	}
	return rels, nil
}

// zipfSpace is the side of the Zipf generator's default square space.
const zipfSpace = 100_000

// onBorder reports whether the generator clamped r onto the border of
// the [0, side]² space: its start point is the top-left vertex, so the
// clamp leaves it at x = 0, x = side−l, y = b or y = side.
func onBorder(r geom.Rect, side float64) bool {
	return r.X == 0 || r.X == side-r.L || r.Y == r.B || r.Y == side
}

// serviceQuery is one query text of the service mix.
type serviceQuery struct {
	text string
	// slots names the registered relations the query binds.
	slots []string
}

// serviceQueries is the service mix's query pool: chains and pairs over
// the uniform and the Zipf relations, with overlap and range joins.
var serviceQueries = []serviceQuery{
	{"U1 ov U2 and U2 ov U3", []string{"U1", "U2", "U3"}},
	{"U1 ov U2 and U2 ra(30) U3", []string{"U1", "U2", "U3"}},
	{"U1 ov U3", []string{"U1", "U3"}},
	{"Z1 ov Z2", []string{"Z1", "Z2"}},
	{"Z1 ra(5) Z2", []string{"Z1", "Z2"}},
}

// serviceMethods are the submitted method names; "auto" lets the
// server's planner choose.
var serviceMethods = []string{"c-rep-l", "2-way-cascade", "auto"}

// versioned are the relations the service mix re-registers; each has
// two versions of different content, and a re-registration swaps in
// the other one.
var versioned = []string{"U3", "Z2"}

// reregisterOneIn is the share of service operations that re-register
// a relation: one in eight.
const reregisterOneIn = 8

// serviceOp is one operation of a service client.
type serviceOp struct {
	// reregister, when set, swaps versioned[rel] for its other version;
	// otherwise the op submits serviceQueries[query] with method.
	reregister bool
	rel        int
	query      int
	method     string
}

// opStream returns caller c's operation generator, a pure function of
// the seed and the caller. Operations come in blocks of
// reregisterOneIn: one re-registration at a seeded position and
// queries dealt from a seeded shuffle of every (query, method) pair,
// reshuffled when used up. Seeds change the order, not the mix, so runs
// of different seeds do the same kind of work.
func opStream(seed uint64, c int) func() serviceOp {
	rng := rand.New(rand.NewPCG(subSeed(seed, 1000+uint64(c)), 0x5e41ce))
	var deck []serviceOp
	var block []serviceOp
	return func() serviceOp {
		if len(block) == 0 {
			for len(block) < reregisterOneIn-1 {
				if len(deck) == 0 {
					for qi := range serviceQueries {
						for _, m := range serviceMethods {
							deck = append(deck, serviceOp{query: qi, method: m})
						}
					}
					rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				block = append(block, deck[len(deck)-1])
				deck = deck[:len(deck)-1]
			}
			at := rng.IntN(reregisterOneIn)
			block = slices.Insert(block, at, serviceOp{reregister: true, rel: rng.IntN(len(versioned))})
		}
		op := block[0]
		block = block[1:]
		return op
	}
}

// serviceRelations generates the service mix's relations: U1, U2 and
// two versions of U3 (uniform), Z1 and two versions of Z2 (Zipf, all
// from one cluster layout). The map holds, per name, the versions in
// order; unversioned relations have one.
func serviceRelations(unit int, seed uint64) (map[string][]spatial.Relation, error) {
	out := map[string][]spatial.Relation{}
	for i, name := range []string{"U1", "U2", "U3", "U3"} {
		rel, err := uniformRelation(name, unit, subSeed(seed, 100+uint64(i)))
		if err != nil {
			return nil, err
		}
		out[name] = append(out[name], rel)
	}
	zs, err := zipfRelations([]string{"Z1", "Z2", "Z2"}, unit, subSeed(seed, 200))
	if err != nil {
		return nil, err
	}
	for _, rel := range zs {
		out[rel.Name] = append(out[rel.Name], rel)
	}
	return out, nil
}
