package spatial

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestOrderByMinXMatchesStableSort checks orderByMinX against the
// comparator stable sort it replaces in the cascade: on every input the
// two must produce the identical permutation — the same order for
// distinct MinX values and input order among equal ones, with -0 and +0
// equal as cmp.Compare has them.
func TestOrderByMinXMatchesStableSort(t *testing.T) {
	type rec struct {
		x   float64
		idx int
	}
	rng := rand.New(rand.NewSource(12))
	gens := map[string]func() float64{
		// A handful of values: long runs of equal keys, both zeros.
		"few": func() float64 {
			return []float64{-3.5, -1, math.Copysign(0, -1), 0, 0.25, 1, 7}[rng.Intn(7)]
		},
		// Integer grid with signed zeros and negatives: many ties.
		"ints": func() float64 {
			v := float64(rng.Intn(201) - 100)
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			return v
		},
		// Wide range, mostly distinct: exercises every radix pass.
		"wide": func() float64 {
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
		},
		// Extremes of the finite range next to tiny subnormals.
		"extreme": func() float64 {
			return []float64{-math.MaxFloat64, math.MaxFloat64, -math.SmallestNonzeroFloat64,
				math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, rng.NormFloat64()}[rng.Intn(7)]
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 1000, 100_003} {
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = rec{x: gen(), idx: i}
			}
			want := slices.Clone(recs)
			slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.x, b.x) })
			got := slices.Clone(recs)
			orderByMinX(got, func(r *rec) float64 { return r.x })
			for i := range want {
				if got[i].idx != want[i].idx {
					t.Fatalf("%s n=%d: position %d holds input %d (x=%v), stable sort has %d (x=%v)",
						name, n, i, got[i].idx, got[i].x, want[i].idx, want[i].x)
				}
			}
		}
	}
}

// TestOrderByMinXSortedInput covers the already-ordered fast path and a
// reversed input.
func TestOrderByMinXSortedInput(t *testing.T) {
	n := 5000
	asc := make([]float64, n)
	for i := range asc {
		asc[i] = float64(i / 3)
	}
	got := slices.Clone(asc)
	orderByMinX(got, func(x *float64) float64 { return *x })
	if !slices.Equal(got, asc) {
		t.Fatal("sorted input was reordered")
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	orderByMinX(desc, func(x *float64) float64 { return *x })
	if !slices.Equal(desc, asc) {
		t.Fatal("reversed input not sorted")
	}
}

// TestMinXKeyOrder checks that minXKey is monotone in cmp.Compare order.
func TestMinXKeyOrder(t *testing.T) {
	vals := []float64{-math.MaxFloat64, -1e300, -2, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2, 1e300, math.MaxFloat64}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(minXKey(a), minXKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("minXKey order of %v vs %v = %d, want %d", a, b, got, want)
			}
		}
	}
}
