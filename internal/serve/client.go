package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// Summary is the terminal record of one submitted campaign — everything the
// outcome tables need (Counts, Cycles, Trials), plus the server's run
// identity.
type Summary struct {
	Key    string
	Counts fault.Counts
	Cycles int64
	Trials int
}

// Client submits campaigns to a running fi-serve daemon and consumes their
// event streams.
type Client struct {
	// Addr is the daemon's "host:port".
	Addr string
	// HTTP overrides the transport (nil ⇒ a default client with no overall
	// timeout — streams live as long as their campaigns).
	HTTP *http.Client
	// Retries bounds stream reconnections after a torn connection (0 ⇒ 3).
	// Each reconnect resumes at the first undelivered event, so the
	// observer's total view equals an uninterrupted stream's.
	Retries int
}

// Run submits the spec and streams its events: obs (optional) fires once
// per trial in trial order with absolute indexes — the same shape as
// campaign.WithObserver — and the terminal summary is returned. Identical
// submissions from any number of clients dedup onto one server-side
// execution. A dropped connection reconnects with the delivered count as
// the replay offset, making interruption invisible to the caller.
func (c *Client) Run(ctx context.Context, spec campaign.Spec, obs func(int, campaign.TrialResult)) (*Summary, error) {
	retries := c.Retries
	if retries <= 0 {
		retries = 3
	}
	from := 0
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 100 * time.Millisecond): //fi:wallclock-ok — reconnect pacing only; the replayed stream is a pure function of the event log

			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		sum, n, err := c.stream(ctx, spec, from, obs)
		from += n
		if err == nil {
			return sum, nil
		}
		if ctx.Err() != nil {
			// Cancelling closes the body under the decoder, which may then
			// report the closed connection rather than the cancellation.
			return nil, ctx.Err()
		}
		var fatal *fatalError
		if errors.As(err, &fatal) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("serve: stream to %s kept tearing: %w", c.Addr, lastErr)
}

// RunCampaign runs cam on the daemon — the daemon's counterpart of
// Campaign.Run and shard.Pool.Run. It submits cam.Spec() with the deployment
// fields (CacheDir, Workers) cleared: the daemon's cache and pool are its
// own. What does not travel in a Spec (observer, journal, precision rule) is
// not honoured, and the Result carries what the summary does — App, Tool,
// Counts, Cycles, Trials.
func (c *Client) RunCampaign(ctx context.Context, cam *campaign.Campaign) (*campaign.Result, error) {
	spec := cam.Spec()
	spec.CacheDir, spec.Workers = "", 0
	tool, err := campaign.ToolByName(spec.Tool)
	if err != nil {
		return nil, err
	}
	sum, err := c.Run(ctx, spec, nil)
	if err != nil {
		return nil, err
	}
	return &campaign.Result{App: spec.App, Tool: tool,
		Counts: sum.Counts, Cycles: sum.Cycles, Trials: sum.Trials}, nil
}

// fatalError marks failures a reconnect cannot cure (a rejected submission,
// a failed run).
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// stream runs one connection: submit with the replay offset, consume events
// until the terminal line. Returns the summary (nil if the stream tore
// first) and how many trial events were delivered on this connection.
func (c *Client) stream(ctx context.Context, spec campaign.Spec, from int, obs func(int, campaign.TrialResult)) (*Summary, int, error) {
	body, err := json.Marshal(Request{Spec: spec, From: from})
	if err != nil {
		return nil, 0, &fatalError{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+c.Addr+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, 0, &fatalError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err // dial/handshake failure: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 500 {
			return nil, 0, err
		}
		return nil, 0, &fatalError{err}
	}

	dec := json.NewDecoder(resp.Body)
	n := 0
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, n, fmt.Errorf("serve: stream: %w", err) // torn: retryable
		}
		switch e.Kind {
		case kindTrial:
			if obs != nil {
				obs(e.Index, e.TR)
			}
			n++
		case kindSummary:
			return &Summary{Key: e.Key, Counts: e.Counts, Cycles: e.Cycles, Trials: e.Trials}, n, nil
		case kindError:
			return nil, n, &fatalError{fmt.Errorf("serve: run failed: %s", e.Err)}
		default:
			return nil, n, &fatalError{fmt.Errorf("serve: unknown event kind %q", e.Kind)}
		}
	}
}
