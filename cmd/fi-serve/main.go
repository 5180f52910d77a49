// Command fi-serve is the campaign daemon: a long-lived HTTP service that
// accepts campaign submissions (campaign.Spec-shaped JSON), executes each
// exactly once — identical submissions dedup by the spec's content key —
// and streams (index, TrialResult) events to every subscribed client as
// trials land. Reconnecting clients replay the delivered prefix and resume
// the live tail, so a torn connection never loses or duplicates a trial.
//
// Usage:
//
//	fi-serve [-listen :8714] [-shards 2] [-shard-nodes host:port,...]
//	         [-cache-dir DIR] [-journal DIR]
//
// Submissions co-schedule as tenants of one shared shard worker pool
// (-shards local re-exec'd workers, or -shard-nodes remote fi-campaign
// -shard-listen nodes — each worker a session on a socket, served alike);
// -shards 0 without nodes runs campaigns in-process.
// -cache-dir shares one content-addressed build cache across every tenant
// (and overrides whatever CacheDir clients put in their specs); -journal
// makes finished trials survive daemon restarts — a resubmitted campaign
// replays instead of re-executing.
//
// SIGINT or SIGTERM cancels the running campaigns (their streams end with an
// error event; what they delivered is journaled), drains the HTTP server and
// releases the pool and the journal before exiting.
//
// Submit with: fi-campaign -submit host:port [usual campaign flags].
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/shard"

	// Register the extension injectors so submissions may name them.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	shard.MaybeWorker() // -shards re-execs this binary as its workers
	listen := flag.String("listen", ":8714", "HTTP listen address")
	shards := flag.Int("shards", 2, "size of the shared worker pool (re-exec'd worker processes; 0 = run campaigns in-process)")
	shardNodes := flag.String("shard-nodes", "", "comma-separated remote worker-node addresses (fi-campaign -shard-listen instances) to pool instead of local re-exec workers; -shards sizes the session count (0 = one per node)")
	cacheDir := flag.String("cache-dir", "", "shared content-addressed build/profile cache for all tenants (overrides client specs' CacheDir)")
	journalDir := flag.String("journal", "", "crash-safe trial journal; resubmitted campaigns replay recorded trials after a daemon restart")
	flag.Parse()

	cfg := serve.Config{CacheDir: *cacheDir}
	if *journalDir != "" {
		j, err := campaign.OpenJournal(*journalDir)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		cfg.Journal = j
	}
	pool, err := shard.OpenPool(*shards, *shardNodes)
	if err != nil {
		fatal(err)
	}
	if pool != nil {
		defer pool.Close()
		cfg.Pool = pool
	}

	s, err := serve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM: cancel the running campaigns, let their streams end —
	// a client that stopped reading is cut off after a grace — then return
	// so the pool and journal defers run.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	hs := &http.Server{Addr: *listen, Handler: s.Handler()}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-ctx.Done()
		s.Close()
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if hs.Shutdown(drain) != nil {
			hs.Close()
		}
	}()
	fmt.Fprintf(os.Stderr, "fi-serve: listening on %s (pool: %s)\n", *listen, poolDesc(pool))
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-stopped
	fmt.Fprintln(os.Stderr, "fi-serve: shut down")
}

func poolDesc(p *shard.Pool) string {
	if p == nil {
		return "in-process"
	}
	return fmt.Sprintf("%d workers", p.Workers())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fi-serve:", err)
	os.Exit(1)
}
