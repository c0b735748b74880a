package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/server"
	"mwsjoin/internal/spatial"
)

const (
	// serviceClients is the number of closed-loop HTTP clients.
	serviceClients = 2
	// pollInterval is how long a client waits between status polls.
	pollInterval = 5 * time.Millisecond
	// pageLimit is the result page size a client asks for.
	pageLimit = 10_000
)

// serviceMix is service-mix-20k: the join service behind its HTTP
// handler on a loopback listener, with two clients that submit, poll
// and fetch every result page of queries drawn from a seeded pool, and
// now and then re-register a relation with other content.
type serviceMix struct {
	seed uint64
	// rels holds every version of every relation; want the reference
	// tuple hash per query and bound versions (see refKey).
	rels map[string][]spatial.Relation
	want map[string]tupleHash

	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	streams []func() serviceOp

	// regMu orders re-registrations against submissions, so each
	// submission binds the versions recorded for it.
	regMu   sync.RWMutex
	version map[string]int

	mu        sync.Mutex
	submitted int64 // submissions that reached admission
	cached    int64 // of those, answered from the cache
	rejects   int64
	hits0     int64 // server_cache_hits_total after set-up
	misses0   int64
}

func newServiceMix(seed uint64, _ string) (workload, error) {
	rels, err := serviceRelations(unit20k, seed)
	if err != nil {
		return nil, err
	}
	w := &serviceMix{seed: seed, rels: rels, want: map[string]tupleHash{}}
	// The references run C-Rep, which no fixed-method submission uses,
	// on the in-process engine, once per query and version combination.
	for qi, sq := range serviceQueries {
		combos := []map[string]int{{}}
		for _, slot := range sq.slots {
			var next []map[string]int
			for _, c := range combos {
				for v := range rels[slot] {
					m := map[string]int{slot: v}
					for k, x := range c {
						m[k] = x
					}
					next = append(next, m)
				}
			}
			combos = next
		}
		for _, ver := range combos {
			bound := make([]spatial.Relation, len(sq.slots))
			for i, slot := range sq.slots {
				bound[i] = rels[slot][ver[slot]]
			}
			_, want, err := reference(sq.text, bound, spatial.ControlledReplicate, spatial.Config{Reducers: reducers})
			if err != nil {
				return nil, err
			}
			w.want[refKey(qi, ver)] = want
		}
	}
	return w, nil
}

// refKey names a query bound to given relation versions.
func refKey(qi int, ver map[string]int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(qi))
	for _, slot := range serviceQueries[qi].slots {
		fmt.Fprintf(&b, "/%s.%d", slot, ver[slot])
	}
	return b.String()
}

func (w *serviceMix) start() error {
	reg := metrics.NewRegistry()
	w.srv = server.New(server.Config{Metrics: reg, Reducers: reducers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: server.NewHandler(w.srv, reg)}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
	}
	w.version = map[string]int{}
	for _, vs := range w.rels {
		w.srv.RegisterRelation(vs[0])
	}

	// Warm-up: the first query of the pool, checked like any other.
	sq := serviceQueries[0]
	st, _, err := w.submit(sq.text, serviceMethods[0])
	if err == nil {
		st, _, err = w.await(st)
	}
	if err == nil {
		var h tupleHash
		if h, err = w.fetch(st.ID); err == nil {
			err = checkHash(h, w.want[refKey(0, w.version)])
		}
	}
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	if w.hits0, w.misses0, err = w.cacheCounters(); err != nil {
		return err
	}
	w.submitted, w.cached, w.rejects = 0, 0, 0
	w.streams = make([]func() serviceOp, serviceClients)
	for c := range w.streams {
		w.streams[c] = opStream(w.seed, c)
	}
	return nil
}

func (w *serviceMix) stop() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx) //nolint:errcheck // best effort; Serve has returned either way
	<-w.served
	w.srv.Close(ctx) //nolint:errcheck // drains running jobs
	w.client.CloseIdleConnections()
	w.hs = nil
}

func (w *serviceMix) callers() int { return serviceClients }

func (w *serviceMix) op(c int, traced bool, rec *recorder) {
	op := w.streams[c]()
	if op.reregister {
		name := versioned[op.rel]
		w.regMu.Lock()
		w.version[name] = 1 - w.version[name]
		w.srv.RegisterRelation(w.rels[name][w.version[name]])
		w.regMu.Unlock()
		rec.write()
		return
	}

	sq := serviceQueries[op.query]
	w.regMu.RLock()
	key := refKey(op.query, w.version)
	t0 := time.Now()
	st, code, err := w.submit(sq.text, op.method)
	submit := time.Since(t0)
	w.regMu.RUnlock()
	w.mu.Lock()
	if code == http.StatusOK || code == http.StatusAccepted || code == http.StatusTooManyRequests {
		w.submitted++
	}
	if code == http.StatusTooManyRequests {
		w.rejects++
	}
	if err == nil && st.Cached {
		w.cached++
	}
	w.mu.Unlock()
	if err != nil {
		rec.fail(err)
		return
	}
	st, polls, err := w.await(st)
	if err != nil {
		rec.fail(err)
		return
	}
	t1 := time.Now()
	h, err := w.fetch(st.ID)
	done := time.Now()
	var spans spanSums
	if err == nil && traced && !st.Cached {
		spans, err = w.spans(st.ID)
	}
	if err != nil {
		rec.fail(err)
		return
	}
	rec.query(t0, done, traced, checkHash(h, w.want[key]))
	rec.layer("server.result_fetch_s", done.Sub(t1).Seconds())
	switch {
	case st.Cached:
		rec.layer("server.submit_hit_s", submit.Seconds())
		return
	case op.method == "auto":
		rec.layer("server.submit_auto_s", submit.Seconds())
	default:
		rec.layer("server.submit_miss_s", submit.Seconds())
	}
	execute := time.Duration(st.ExecUS) * time.Microsecond
	rec.layer("server.polls_per_query", float64(polls))
	rec.layer("server.queue_wait_s", float64(st.QueueWaitUS)/1e6)
	rec.layer("server.exec_s", execute.Seconds())
	rec.layer("spatial.execute_s", execute.Seconds())
	if st.Stats != nil {
		inputs := 0
		for _, slot := range sq.slots {
			inputs += len(w.rels[slot][0].Items)
		}
		recordStats(rec, st.Stats, inputs)
	}
	if traced {
		recordSpans(rec, spans, execute)
	}
}

// finish cross-checks the server's cache counters against the clients'
// own count of cached answers.
func (w *serviceMix) finish(rec *recorder) error {
	hits, misses, err := w.cacheCounters()
	if err != nil {
		return err
	}
	hits -= w.hits0
	misses -= w.misses0
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.layer("server.rejects", float64(w.rejects))
	rec.layer("server.query_p90_s", quantile(slices.Concat(rec.latency[false], rec.latency[true]), 0.9))
	if hits+misses > 0 {
		rec.layer("server.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if hits != w.cached || hits+misses != w.submitted {
		return fmt.Errorf("cache counters disagree with the clients: /metrics has %d hits of %d lookups, clients saw %d cached of %d submissions",
			hits, hits+misses, w.cached, w.submitted)
	}
	return nil
}

// submit posts one query; it returns the HTTP status code with any
// error.
func (w *serviceMix) submit(text, method string) (*server.JobStatus, int, error) {
	body, err := json.Marshal(server.SubmitRequest{Query: text, Method: method})
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return nil, resp.StatusCode, fmt.Errorf("submit %q: %s: %s", text, resp.Status, bytes.TrimSpace(msg))
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("submit %q: %w", text, err)
	}
	return &st, resp.StatusCode, nil
}

// await polls a job until it is terminal and returns its final status
// and the number of polls; a job that did not finish done is an error.
func (w *serviceMix) await(st *server.JobStatus) (*server.JobStatus, int, error) {
	polls := 0
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(pollInterval)
		polls++
		next := &server.JobStatus{}
		if err := w.getJSON("/v1/jobs/"+st.ID, next); err != nil {
			return nil, polls, err
		}
		st = next
	}
	if st.State != server.StateDone {
		return nil, polls, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, st.Query, st.State, st.Error)
	}
	return st, polls, nil
}

// fetch reads every result page of a done job and hashes the tuples.
func (w *serviceMix) fetch(id string) (tupleHash, error) {
	var h tupleHash
	offset := 0
	for {
		var page server.ResultPage
		path := fmt.Sprintf("/v1/jobs/%s/result?offset=%d&limit=%d", id, offset, pageLimit)
		if err := w.getJSON(path, &page); err != nil {
			return h, err
		}
		for _, ids := range page.Tuples {
			h.add(ids)
		}
		if page.NextOffset == nil {
			return h, nil
		}
		offset = *page.NextOffset
	}
}

// spans reads a done job's span tree from its Chrome trace export.
func (w *serviceMix) spans(id string) (spanSums, error) {
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := w.getJSON("/v1/jobs/"+id+"/trace", &tr); err != nil {
		return spanSums{}, err
	}
	var s spanSums
	for _, ev := range tr.TraceEvents {
		s.add(ev.Cat, ev.Name, time.Duration(ev.Dur)*time.Microsecond)
	}
	return s, nil
}

func (w *serviceMix) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// cacheCounters scrapes the result-cache hit and miss totals from the
// service's /metrics endpoint.
func (w *serviceMix) cacheCounters() (hits, misses int64, err error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "server_cache_hits_total":
			dst = &hits
		case "server_cache_misses_total":
			dst = &misses
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(val, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/metrics %s: %w", name, err)
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, errors.New("/metrics lacks the server_cache_hits_total/server_cache_misses_total counters")
	}
	return hits, misses, nil
}
