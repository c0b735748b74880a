package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// quantile interpolates the q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tupleHash is an order-independent digest of a tuple set: the sum of
// per-tuple FNV-1a hashes, mixed with the tuple count. Two engines that
// emit the same set in different orders hash identically.
type tupleHash struct {
	Count int
	Sum   uint64
}

func (h *tupleHash) add(ids []int32) {
	f := fnv.New64a()
	var b [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		f.Write(b[:])
	}
	// Finalise with a multiply-xorshift so that summing stays sensitive
	// to every bit of each tuple hash.
	x := f.Sum64()
	x ^= x >> 31
	x *= 0x7fb5d329728ea185
	x ^= x >> 27
	h.Sum += x
	h.Count++
}

func hashTuples(ts []spatial.Tuple) tupleHash {
	var h tupleHash
	for _, t := range ts {
		h.add(t.IDs)
	}
	return h
}

func (h tupleHash) String() string { return fmt.Sprintf("%d tuples/%016x", h.Count, h.Sum) }

// checkHash reports a wrong result as an error.
func checkHash(got, want tupleHash) error {
	if got != want {
		return fmt.Errorf("wrong result: got %v, want %v", got, want)
	}
	return nil
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counts.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// window is the interval one query ran in.
type window struct{ start, end time.Time }

// heapSampler polls the live heap (HeapAlloc's runtime/metrics
// equivalent, which does not stop the world) every 2 ms and keeps the
// samples.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	at      []time.Time
	samples []uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.at = append(h.at, time.Now())
			h.samples = append(h.samples, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler; its samples may be read afterwards.
func (h *heapSampler) finish() {
	close(h.stop)
	h.wg.Wait()
}

// peaks returns, per window, the highest heap sampled inside it. A
// query's peak depends on where the collector happened to run, so a
// median over many queries is steadier than the single highest sample
// of a run.
func (h *heapSampler) peaks(ws []window) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		i, _ := slices.BinarySearchFunc(h.at, w.start, func(t, x time.Time) int { return t.Compare(x) })
		var peak uint64
		for ; i < len(h.at) && !h.at[i].After(w.end); i++ {
			peak = max(peak, h.samples[i])
		}
		out = append(out, float64(peak))
	}
	return out
}

// loopbackBytes reads the bytes received on the loopback interface
// from /proc/net/dev. Every byte sent over loopback is received on it
// once, so the receive counter alone counts the traffic.
func loopbackBytes() (uint64, error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseUint(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/net/dev has no lo interface")
}

// loopbackIdle samples the loopback counter over an idle interval and
// reports whether it stayed still, i.e. whether per-query loopback
// deltas measure only the benchmark's own traffic.
func loopbackIdle(interval time.Duration) bool {
	a, err := loopbackBytes()
	if err != nil {
		return false
	}
	time.Sleep(interval)
	b, err := loopbackBytes()
	return err == nil && a == b
}

// spanSums totals span durations by layer: rounds, jobs, and the
// map/shuffle/reduce phases of the jobs. Rounds contain jobs and jobs
// contain phases, so the differences are self times.
type spanSums struct {
	round, job, phase     time.Duration
	mapp, shuffle, reduce time.Duration
}

func (s *spanSums) add(kind, name string, dur time.Duration) {
	if dur < 0 {
		return
	}
	switch trace.Kind(kind) {
	case trace.KindRound:
		s.round += dur
	case trace.KindJob:
		s.job += dur
	case trace.KindPhase:
		s.phase += dur
		switch name {
		case "map":
			s.mapp += dur
		case "shuffle":
			s.shuffle += dur
		case "reduce":
			s.reduce += dur
		}
	}
}

func sumSpans(spans []trace.Span) spanSums {
	var s spanSums
	for _, sp := range spans {
		s.add(string(sp.Kind), sp.Name, sp.Dur)
	}
	return s
}

// recordSpans adds the span-derived layer metrics of one traced query
// whose join call took execute from outside.
func recordSpans(rec *recorder, s spanSums, execute time.Duration) {
	if execute > 0 {
		rec.layer("spatial.outside_jobs_frac", 1-s.job.Seconds()/execute.Seconds())
	}
	rec.layer("spatial.round_self_s", (s.round - s.job).Seconds())
	rec.layer("mapreduce.map_s", s.mapp.Seconds())
	rec.layer("mapreduce.shuffle_s", s.shuffle.Seconds())
	rec.layer("mapreduce.reduce_s", s.reduce.Seconds())
	rec.layer("mapreduce.job_self_s", (s.job - s.phase).Seconds())
}

// recordStats adds the counter-derived layer metrics of one executed
// query, read from the Stats the engine returned.
func recordStats(rec *recorder, st *spatial.Stats, inputRects int) {
	var pairs, bytes, combIn, combOut, attempts, failures, netBytes int64
	skew := 0.0
	for _, r := range st.Rounds {
		pairs += r.IntermediatePairs
		bytes += r.IntermediateBytes
		combIn += r.CombineInputPairs
		combOut += r.CombineOutputPairs
		attempts += r.MapAttempts + r.ReduceAttempts
		failures += r.MapFailures + r.ReduceFailures
		netBytes += r.ShuffleNetworkBytes
		skew = max(skew, r.MaxMedianReducerSkew())
	}
	if inputRects > 0 {
		rec.layer("spatial.replication_factor", float64(st.RectanglesAfterReplication)/float64(inputRects))
	}
	rec.layer("mapreduce.shuffle_pairs", float64(pairs))
	rec.layer("mapreduce.shuffle_mb", float64(bytes)/1e6)
	rec.layer("mapreduce.max_median_skew", skew)
	if combIn > 0 {
		rec.layer("mapreduce.combine_keep_ratio", float64(combOut)/float64(combIn))
	}
	rec.layer("mapreduce.task_attempts", float64(attempts))
	rec.layer("mapreduce.task_failures", float64(failures))
	rec.layer("dfs.mb_written", float64(st.DFS.BytesWritten)/1e6)
	rec.layer("dfs.mb_read", float64(st.DFS.BytesRead)/1e6)
	if st.Chain != nil {
		rec.layer("dfs.checkpoint_mb_written", float64(st.Chain.CheckpointBytesWritten)/1e6)
	}
	rec.layer("cluster.shuffle_net_mb", float64(netBytes)/1e6)
}
