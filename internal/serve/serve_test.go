package serve_test

// Service-layer suite: identical submissions dedup onto one execution, a
// reconnecting client's stitched stream equals an uninterrupted client's,
// and rejected submissions fail fast (no retry storm). That served
// campaigns — in-process or pool-backed, alongside other tenants —
// reproduce the reference run is the served rows of internal/experiments'
// TestEquivalenceMatrix.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// newTestServer starts an httptest daemon and returns it with a ready Client.
func newTestServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Client) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, &serve.Client{Addr: strings.TrimPrefix(ts.URL, "http://")}
}

// spec builds the submission for app×REFINE with the given trials and seed —
// through campaign.New so every derived field (costs, build options) matches
// what a local run would use.
func spec(t *testing.T, appName string, trials int, seed uint64) campaign.Spec {
	t.Helper()
	app, err := workloads.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	return campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithBuildOptions(campaign.DefaultBuildOptions())).Spec()
}

// baseline runs the same campaign in-process, no service involved.
func baseline(t *testing.T, appName string, trials int, seed uint64) *campaign.Result {
	t.Helper()
	app, err := workloads.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithBuildOptions(campaign.DefaultBuildOptions()),
		campaign.WithCache(nil)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type stream struct {
	mu     sync.Mutex
	events []serve.Event
}

func (s *stream) obs(i int, tr campaign.TrialResult) {
	s.mu.Lock()
	s.events = append(s.events, serve.Event{Kind: "trial", Index: i, TR: tr})
	s.mu.Unlock()
}

func assertStreamInOrder(t *testing.T, label string, got []serve.Event, trials int) {
	t.Helper()
	if len(got) != trials {
		t.Fatalf("%s: stream delivered %d trials, want %d", label, len(got), trials)
	}
	for i, e := range got {
		if e.Index != i {
			t.Fatalf("%s: stream[%d].Index = %d, want %d (trial order)", label, i, e.Index, i)
		}
	}
}

func assertSummary(t *testing.T, label string, sum *serve.Summary, ref *campaign.Result) {
	t.Helper()
	if sum.Counts != ref.Counts || sum.Cycles != ref.Cycles || sum.Trials != ref.Trials {
		t.Fatalf("%s: summary %+v/%d/%d != baseline %+v/%d/%d",
			label, sum.Counts, sum.Cycles, sum.Trials, ref.Counts, ref.Cycles, ref.Trials)
	}
}

// TestServeDedupsIdenticalSubmissions: two clients submit the same spec
// concurrently; the server runs it once, both streams are identical and in
// trial order, and /v1/runs lists exactly one key.
func TestServeDedupsIdenticalSubmissions(t *testing.T) {
	const trials = 24
	ref := baseline(t, "CG", trials, 7)
	var admitted, deduped int
	var logMu sync.Mutex
	ts, client := newTestServer(t, serve.Config{Logf: func(format string, args ...any) {
		logMu.Lock()
		if strings.Contains(format, "admitted") {
			admitted++
		}
		if strings.Contains(format, "deduped") {
			deduped++
		}
		logMu.Unlock()
		t.Logf(format, args...)
	}})
	sp := spec(t, "CG", trials, 7)

	var wg sync.WaitGroup
	sums := make([]*serve.Summary, 2)
	streams := make([]stream, 2)
	errs := make([]error, 2)
	for i := range sums {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = client.Run(context.Background(), sp, streams[i].obs)
		}()
	}
	wg.Wait()

	for i := range sums {
		label := fmt.Sprintf("client %d", i)
		if errs[i] != nil {
			t.Fatalf("%s: %v", label, errs[i])
		}
		assertStreamInOrder(t, label, streams[i].events, trials)
		assertSummary(t, label, sums[i], ref)
	}
	if sums[0].Key != sums[1].Key {
		t.Fatalf("clients saw different run keys: %s vs %s", sums[0].Key, sums[1].Key)
	}
	for i := range streams[0].events {
		if streams[0].events[i].TR != streams[1].events[i].TR {
			t.Fatalf("streams diverge at trial %d: %+v vs %+v",
				i, streams[0].events[i].TR, streams[1].events[i].TR)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if admitted != 1 || deduped != 1 {
		t.Fatalf("admitted %d / deduped %d executions, want 1 / 1", admitted, deduped)
	}

	// The registry agrees: one key, done, no error.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed []struct {
		Key  string
		Done bool
		Err  string
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Key != sums[0].Key || !listed[0].Done || listed[0].Err != "" {
		t.Fatalf("/v1/runs = %+v, want exactly the one finished run %s", listed, sums[0].Key)
	}
}

// TestServeIgnoresClientCacheDir: a submission's CacheDir is untrusted
// input. Neither an in-process daemon nor one on a shard pool (a worker node
// in this process) creates or uses the path a client names — every run uses
// the daemon's own cache directory — and the results are the baseline's.
func TestServeIgnoresClientCacheDir(t *testing.T) {
	const trials = 8
	ref := baseline(t, "CG", trials, 3)
	node, err := shard.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve()
	t.Cleanup(func() { node.Close() })
	pool, err := shard.NewTCPPool(1, []string{node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for _, tc := range []struct {
		name string
		pool *shard.Pool
	}{{"in-process", nil}, {"pool", pool}} {
		serverDir := t.TempDir()
		_, client := newTestServer(t, serve.Config{Pool: tc.pool, CacheDir: serverDir})
		sp := spec(t, "CG", trials, 3)
		sp.CacheDir = filepath.Join(t.TempDir(), "client-cache")
		sum, err := client.Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSummary(t, tc.name, sum, ref)
		if _, err := os.Stat(sp.CacheDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the client's CacheDir %s was created (stat: %v)", tc.name, sp.CacheDir, err)
		}
		if entries, _ := filepath.Glob(filepath.Join(serverDir, "*.fic")); len(entries) == 0 {
			t.Fatalf("%s: the daemon's cache directory holds no build entry", tc.name)
		}
	}
}

// TestServeIgnoresClientWorkers: a submission's Workers is deployment
// detail too. A raw /v1/run asking for 4096 executor goroutines runs on the
// daemon's own executor: once the first trial event arrives, the process
// holds a few goroutines per core, not one per requested worker.
func TestServeIgnoresClientWorkers(t *testing.T) {
	s, err := serve.NewServer(serve.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close) // cancels the run the stream abandons
	sp := spec(t, "EP", 4096, 5)
	sp.Workers = 4096
	goroutines := 0
	rawStream(t, ts.URL, sp, 0, 1, func(int) { goroutines = runtime.NumGoroutine() })
	if limit := 64 + 4*runtime.GOMAXPROCS(0); goroutines > limit {
		t.Fatalf("%d goroutines after the first trial event, want at most %d: the client's Workers sized the executor",
			goroutines, limit)
	}
}

// post POSTs body to /v1/run; the response body closes with the test.
func post(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// request encodes one /v1/run submission.
func request(t *testing.T, sp campaign.Spec, from int) io.Reader {
	t.Helper()
	body, err := json.Marshal(serve.Request{Spec: sp, From: from})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

// rawStream POSTs one /v1/run request and decodes at most limit trial events
// (limit < 0 ⇒ until the terminal line), returning the trial events and the
// terminal event if one was reached. after, if set, runs after each trial
// event.
func rawStream(t *testing.T, url string, sp campaign.Spec, from, limit int, after func(n int)) ([]serve.Event, *serve.Event) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", request(t, sp, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	var events []serve.Event
	for limit < 0 || len(events) < limit {
		var e serve.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decode event: %v", err)
		}
		if e.Kind != "trial" {
			return events, &e
		}
		events = append(events, e)
		if after != nil {
			after(len(events))
		}
	}
	return events, nil // limit reached: abandon the connection mid-stream
}

// TestServeReconnectReplaysDeliveredPrefix: a client whose connection tears
// mid-stream reconnects with From = delivered count; the stitched stream must
// equal the uninterrupted client's byte for byte, and the replay must not
// re-execute anything (the run key stays unique).
func TestServeReconnectReplaysDeliveredPrefix(t *testing.T) {
	const trials = 24
	ts, client := newTestServer(t, serve.Config{})
	sp := spec(t, "CG", trials, 9)

	// The uninterrupted reference stream.
	var whole stream
	sum, err := client.Run(context.Background(), sp, whole.obs)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamInOrder(t, "uninterrupted", whole.events, trials)

	// Torn client: consume 7 events, drop the connection, reconnect at From=7.
	const cut = 7
	head, term := rawStream(t, ts.URL, sp, 0, cut, nil)
	if term != nil {
		t.Fatalf("stream ended during the prefix: %+v", term)
	}
	tail, term := rawStream(t, ts.URL, sp, cut, -1, nil)
	if term == nil || term.Kind != "summary" {
		t.Fatalf("resumed stream ended without a summary: %+v", term)
	}
	stitched := append(head, tail...)
	assertStreamInOrder(t, "stitched", stitched, trials)
	for i := range whole.events {
		if stitched[i].TR != whole.events[i].TR || stitched[i].Index != whole.events[i].Index {
			t.Fatalf("stitched[%d] = %+v, uninterrupted %+v", i, stitched[i], whole.events[i])
		}
	}
	if term.Key != sum.Key || term.Counts != sum.Counts || term.Cycles != sum.Cycles || term.Trials != sum.Trials {
		t.Fatalf("resumed summary %+v != uninterrupted %+v", term, sum)
	}
}

// TestServeCloseSettlesRunsOntoTheJournal: Close after a long campaign's
// first event cancels it and returns once it has settled. The stream ends
// with an error event, a later submission is refused 503, the journal holds
// exactly the delivered trials, and a server over that journal replays them.
func TestServeCloseSettlesRunsOntoTheJournal(t *testing.T) {
	dir := t.TempDir()
	open := func() (*campaign.Journal, *serve.Server, string) {
		j, err := campaign.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.NewServer(serve.Config{Journal: j, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		return j, s, ts.URL
	}
	sp := spec(t, "CG", 1<<16, 11)
	sp.Workers = 1 // trials finish in index order, so every journaled trial is delivered

	j, s, url := open()
	events, term := rawStream(t, url, sp, 0, -1, func(n int) {
		if n == 1 {
			s.Close()
		}
	})
	if term == nil || term.Kind != "error" || len(events) == 0 || len(events) == sp.Trials {
		t.Fatalf("closed run: %d events, terminal %+v; want a partial stream ending in an error", len(events), term)
	}
	if resp := post(t, url, request(t, sp, 0)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after Close: %s, want 503", resp.Status)
	}
	j.Close()

	j, s, url = open()
	defer j.Close()
	if st := j.Stats(); st.Loaded != uint64(len(events)) {
		t.Fatalf("reopened journal loaded %d trials, the stream delivered %d", st.Loaded, len(events))
	}
	replayed, _ := rawStream(t, url, sp, 0, len(events), nil)
	s.Close()
	for i := range events {
		if replayed[i] != events[i] {
			t.Fatalf("replayed event %d = %+v, delivered %+v", i, replayed[i], events[i])
		}
	}
	if st := j.Stats(); st.Replayed != uint64(len(events)) {
		t.Fatalf("the new server replayed %d journaled trials, want %d", st.Replayed, len(events))
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// closedConnBody reads like the body it wraps until its request's context
// is done, then fails the way a body closed under the reader can: with the
// closed connection, not the cancellation.
type closedConnBody struct {
	ctx context.Context
	io.ReadCloser
}

func (b closedConnBody) Read(p []byte) (int, error) {
	if b.ctx.Err() != nil {
		return 0, net.ErrClosed
	}
	return b.ReadCloser.Read(p)
}

// TestServeClientCancelMidStream: cancelling the context while a stream is
// being read returns the cancellation — also when the body reports the
// closed connection instead — and no reconnect is attempted.
func TestServeClientCancelMidStream(t *testing.T) {
	s, err := serve.NewServer(serve.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	closedConn := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err == nil {
			resp.Body = closedConnBody{r.Context(), resp.Body}
		}
		return resp, err
	})}
	sp := spec(t, "CG", 1<<16, 13)
	sp.Workers = 1

	for label, client := range map[string]*serve.Client{
		"default transport":        {Addr: addr},
		"body reports closed conn": {Addr: addr, HTTP: closedConn},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := client.Run(ctx, sp, func(int, campaign.TrialResult) {
			if seen++; seen == 1 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Run returned %v, want context.Canceled", label, err)
		}
	}
}

// TestServeFailedRunReleasesItsKey: a spec that validates but fails — no
// instruction of the program is in the population — ends its stream with an
// error, and resubmitting it executes afresh instead of deduping onto the
// failure.
func TestServeFailedRunReleasesItsKey(t *testing.T) {
	var logMu sync.Mutex
	var admitted, deduped int
	_, client := newTestServer(t, serve.Config{Logf: func(format string, args ...any) {
		logMu.Lock()
		admitted += strings.Count(format, "admitted")
		deduped += strings.Count(format, "deduped")
		logMu.Unlock()
		t.Logf(format, args...)
	}})
	bad := spec(t, "CG", 8, 1)
	bad.Build.FI.Funcs = []string{"nope"}
	for i := 0; i < 2; i++ {
		if _, err := client.Run(context.Background(), bad, nil); err == nil || !strings.Contains(err.Error(), "empty target population") {
			t.Fatalf("submission %d of a spec with no targets: %v, want the empty-population failure", i, err)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if admitted != 2 || deduped != 0 {
		t.Fatalf("admitted %d / deduped %d, want the failed key admitted twice", admitted, deduped)
	}
}

// TestServeRejectsBadSubmissions: an unknown app or a mangled range fails
// fast with a fatal (non-retried) client error, a body over the 1 MiB cap is
// answered 413, and none mints a run entry.
func TestServeRejectsBadSubmissions(t *testing.T) {
	ts, client := newTestServer(t, serve.Config{})
	bad := spec(t, "CG", 16, 1)
	bad.App = "no-such-app"
	if _, err := client.Run(context.Background(), bad, nil); err == nil {
		t.Fatal("unknown app accepted")
	}
	neg := spec(t, "CG", 16, 1)
	neg.Lo = -1
	if _, err := client.Run(context.Background(), neg, nil); err == nil {
		t.Fatal("negative range accepted")
	}
	huge := `{"Spec":{"App":"` + strings.Repeat("x", 2<<20) + `"}}`
	if resp := post(t, ts.URL, strings.NewReader(huge)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: %s, want 413", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed []any
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 0 {
		t.Fatalf("rejected submissions minted runs: %+v", listed)
	}
}
