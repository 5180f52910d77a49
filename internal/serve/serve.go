// Package serve is the campaigns-as-a-service layer: a long-lived daemon
// (cmd/fi-serve) that accepts campaign.Spec-shaped submissions over
// HTTP/JSON, executes each exactly once on a shared multi-tenant worker
// pool, and streams (index, TrialResult) events to any number of clients as
// trials land.
//
// Contracts, in the same language as internal/shard:
//
//   - Dedup: submissions are identified by Spec.Key() — the same sha256
//     identity the disk cache and crash-safe journal use, which excludes
//     deployment detail (CacheDir, Workers). Two clients submitting the
//     same campaign get two streams off one execution; a resubmission after
//     the run finished streams the whole recorded prefix and the summary
//     without re-executing anything.
//
//   - Replay: every delivered (index, TrialResult) event is appended to the
//     run's ordered event log. A client that connects — or reconnects after
//     a dropped stream — with From=n receives events[n:] and then the live
//     tail, so a reconnecting client's total stream is byte-for-byte the
//     stream an uninterrupted client saw. With a journal configured the log
//     survives daemon restarts too: journal replay flows through the
//     campaign's Merger and observer, rebuilding the event log before any
//     new trial runs.
//
//   - Concurrency: distinct submissions execute concurrently. On a shard
//     pool they co-schedule as tenants of the pool's round-robin fair
//     sharing (see internal/shard); in-process they share the server's
//     build/profile cache. Either way each campaign's event stream is
//     bit-identical to running it alone — trial i is a pure function of
//     TrialSeed(Seed, tool, i), and ordering is the Merger's job.
//
//   - Lifetime: runs execute under the server's context, not a request's.
//     Close cancels them and waits until each has settled — its stream ends
//     with an error event, and the trials it delivered are journaled — and
//     later submissions are answered 503. A body over 1 MiB is answered 413.
//
// Wire format (HTTP, all JSON): POST /v1/run with a Request body; the
// response is an application/x-ndjson stream of Event lines — zero or more
// {"Kind":"trial"} events in trial order, then exactly one terminal
// {"Kind":"summary"} or {"Kind":"error"}. GET /v1/runs lists the active and
// finished run keys. The structs are also kept gob-wire-clean (exported
// fields only — see the fi-lint gobwire analyzer) so a future gob transport
// can carry them unchanged.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// Request is one campaign submission. From is the replay offset: the server
// streams the run's events starting at index From (0 = the whole stream) —
// a reconnecting client passes the count of events it already consumed.
type Request struct {
	Spec campaign.Spec
	From int
}

// Event is one line of the response stream.
type Event struct {
	Kind  string // "trial", "summary" or "error"
	Index int    // trial: absolute trial index
	TR    campaign.TrialResult
	// Terminal summary fields.
	Key    string // the run's Spec.Key() identity
	Counts fault.Counts
	Cycles int64
	Trials int
	Err    string // error: what failed
}

const (
	kindTrial   = "trial"
	kindSummary = "summary"
	kindError   = "error"
)

// Config parameterizes a Server.
type Config struct {
	// Pool, when set, executes submissions as tenants of one shared shard
	// worker pool (local re-exec'd workers or remote TCP nodes alike). Nil
	// runs campaigns in-process on this process's cores.
	Pool *shard.Pool
	// CacheDir, when set, backs the server's build/profile cache with this
	// disk directory (empty: memory only). A submission's Spec.CacheDir is
	// always ignored: every run, in-process or on the pool, uses the
	// server's cache, never a path a client names.
	CacheDir string
	// Journal, when set, records every completed trial crash-safely; a
	// resubmitted campaign after a daemon restart replays it instead of
	// re-executing.
	Journal *campaign.Journal
	// Logf receives one line per run lifecycle edge (nil ⇒ stderr).
	Logf func(format string, args ...any)
}

// maxRequestBytes caps a /v1/run body: a Spec is a few hundred bytes.
const maxRequestBytes = 1 << 20

// Server owns the run registry. Create with NewServer, expose via Handler,
// and Close to cancel what still runs.
type Server struct {
	cfg   Config
	cache *campaign.Cache // in-process execution: shared across tenants

	ctx     context.Context // every run's lifetime; Close cancels it
	cancel  context.CancelFunc
	running sync.WaitGroup // one per executing run

	mu     sync.Mutex
	runs   map[string]*run
	closed bool
}

// run is one deduped campaign execution and its ordered event log.
type run struct {
	key  string
	cond *sync.Cond

	mu     sync.Mutex
	events []Event // trial events in delivery order
	done   bool
	errMsg string
	counts fault.Counts
	cycles int64
	trials int
}

// NewServer builds a Server over the config. With a nil Pool and empty
// CacheDir, concurrent submissions still share one in-memory build cache.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fi-serve: "+format+"\n", args...)
		}
	}
	cache := campaign.NewCache()
	if cfg.CacheDir != "" {
		var err error
		if cache, err = campaign.NewDiskCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{cfg: cfg, cache: cache, ctx: ctx, cancel: cancel, runs: map[string]*run{}}, nil
}

// Close cancels every running campaign and returns once each has settled:
// its stream ends with an error event, and the trials it delivered are
// already journaled. Submissions after Close are answered 503.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.running.Wait()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/runs", s.handleRuns)
	return mux
}

// handleRuns lists run keys with their state — liveness checks and the CI
// smoke test's dedup assertion (two submissions, one key).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type entry struct {
		Key  string
		Done bool
		Err  string
	}
	out := make([]entry, 0, len(s.runs))
	for _, run := range s.runs { //fi:ordered — sorted by key below
		run.mu.Lock()
		out = append(out, entry{Key: run.key, Done: run.done, Err: run.errMsg})
		run.mu.Unlock()
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleRun admits one submission — validating it, deduping it onto an
// existing run when the key matches, starting the execution when it
// doesn't — and streams the event log from the requested offset.
func (s *Server) handleRun(w http.ResponseWriter, hr *http.Request) {
	if hr.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, hr.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return
	}
	spec := req.Spec
	if err := validate(spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.From < 0 {
		http.Error(w, "negative From", http.StatusBadRequest)
		return
	}

	key := spec.Key()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "server closing", http.StatusServiceUnavailable)
		return
	}
	r, ok := s.runs[key]
	if !ok {
		r = &run{key: key}
		r.cond = sync.NewCond(&r.mu)
		s.runs[key] = r
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			s.execute(r, spec)
		}()
	}
	s.mu.Unlock()
	// Log outside the registry lock: Logf is caller-supplied and must not be
	// invoked inside a critical section.
	if !ok {
		s.cfg.Logf("run %s: admitted %s/%s x%d (seed %d)", key, spec.App, spec.Tool, spec.Trials-spec.Lo, spec.Seed)
	} else {
		s.cfg.Logf("run %s: deduped %s/%s onto existing execution", key, spec.App, spec.Tool)
	}

	s.stream(w, hr, r, req.From)
}

// validate rejects a spec the executor could only fail on, before a run
// entry is minted for it.
func validate(spec campaign.Spec) error {
	if _, err := workloads.ByName(spec.App); err != nil {
		return err
	}
	if _, err := campaign.ToolByName(spec.Tool); err != nil {
		return err
	}
	if err := spec.CheckRange(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// execute runs one admitted campaign to completion and seals the run. A
// failed run stops capturing its key before it is sealed, so no client that
// has seen its error event can dedup onto it: the streams already attached
// get the error, and the next submission of the key executes afresh
// (replaying, with a journal, the trials this one delivered).
func (s *Server) execute(r *run, spec campaign.Spec) {
	res, err := s.runCampaign(r, spec)
	if err != nil {
		s.mu.Lock()
		if s.runs[r.key] == r {
			delete(s.runs, r.key)
		}
		s.mu.Unlock()
	}
	r.finish(res, err, s.cfg.Logf)
}

// runCampaign runs the spec's campaign, appending every trial event as it
// lands. The observer fires from the campaign's order-deterministic Merger —
// in trial order, exactly once per index — so the event log IS the canonical
// stream, no reordering needed here. With a journal, recorded trials replay
// through the same observer before new work runs, rebuilding the log across
// daemon restarts.
func (s *Server) runCampaign(r *run, spec campaign.Spec) (*campaign.Result, error) {
	app, err := workloads.ByName(spec.App)
	if err != nil {
		return nil, err
	}
	var extra []campaign.Option
	if s.cfg.Journal != nil {
		extra = append(extra, campaign.WithJournal(s.cfg.Journal))
	}
	cam, err := campaign.NewFromSpec(spec, app, spec.Lo, spec.Trials, s.cache,
		func(i int, tr campaign.TrialResult) { r.append(i, tr) }, extra...)
	if err != nil {
		return nil, err
	}
	if s.cfg.Pool != nil {
		return s.cfg.Pool.Run(s.ctx, cam)
	}
	return cam.Run(s.ctx)
}

// append records one delivered trial and wakes the streamers.
func (r *run) append(i int, tr campaign.TrialResult) {
	r.mu.Lock()
	r.events = append(r.events, Event{Kind: kindTrial, Index: i, TR: tr})
	r.mu.Unlock()
	r.cond.Broadcast()
}

// finish seals the run with its summary (or failure) and wakes the streamers.
func (r *run) finish(res *campaign.Result, err error, logf func(string, ...any)) {
	r.mu.Lock()
	r.done = true
	if err != nil {
		r.errMsg = err.Error()
	} else {
		r.counts, r.cycles, r.trials = res.Counts, res.Cycles, res.Trials
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	if err != nil {
		logf("run %s: failed: %v", r.key, err)
	} else {
		logf("run %s: finished: %d trials", r.key, res.Trials)
	}
}

// terminal is the run's closing line once done.
func (r *run) terminal() Event {
	if r.errMsg != "" {
		return Event{Kind: kindError, Key: r.key, Err: r.errMsg}
	}
	return Event{Kind: kindSummary, Key: r.key, Counts: r.counts, Cycles: r.cycles, Trials: r.trials}
}

// stream writes the run's event log from offset `from`, then the live tail,
// then the terminal line. A client that vanishes mid-stream just ends this
// handler — the run is unaffected, and the client's replacement stream picks
// up at whatever From it asks for.
func (s *Server) stream(w http.ResponseWriter, hr *http.Request, r *run, from int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)

	// A gone client can't signal the cond; wake the wait loop on its ctx so
	// the handler goroutine ends instead of idling until the run's next
	// event. Taking r.mu first means the wakeup cannot fall between the
	// loop's ctx.Err() check and its cond.Wait.
	ctx := hr.Context()
	defer context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})()

	for {
		r.mu.Lock()
		for len(r.events) <= from && !r.done && ctx.Err() == nil {
			r.cond.Wait()
		}
		pend := append([]Event(nil), r.events[min(from, len(r.events)):]...)
		done := r.done
		var term Event
		if done {
			term = r.terminal()
		}
		r.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		for _, e := range pend {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		from += len(pend)
		if fl != nil {
			fl.Flush()
		}
		if done {
			enc.Encode(term)
			if fl != nil {
				fl.Flush()
			}
			return
		}
	}
}
