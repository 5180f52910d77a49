package shard_test

// TCP transport resilience suite: campaigns fanned out over remote worker
// nodes must stay bit-identical to the in-process baseline across a
// worker-node kill mid-campaign and under network chaos (dropped
// connections, slow dials, torn TCP frames). Worker
// nodes are real processes: each test re-execs this test binary with the
// FI_SHARD_LISTEN marker, which TestMain routes into shard.MaybeWorker before
// any test runs, turning the child into a listening node.

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/shard"
)

// node is one spawned TCP worker-node process.
type node struct {
	cmd  *exec.Cmd
	addr string
}

// startNode re-execs the test binary as a worker node on a kernel-chosen port
// and returns once the child announces its resolved address. The child
// inherits the test's environment, so a t.Setenv(chaos.EnvVar, ...) before
// startNode arms node-side chaos.
func startNode(t *testing.T) *node {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "FI_SHARD_LISTEN=127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n := &node{cmd: cmd}
	t.Cleanup(n.stop)
	sc := bufio.NewScanner(out)
	deadline := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "FI_SHARD_ADDR "); ok {
			n.addr = a
			break
		}
	}
	deadline.Stop()
	if n.addr == "" {
		t.Fatalf("node announced no address (scan err: %v)", sc.Err())
	}
	go io.Copy(io.Discard, out)
	return n
}

func (n *node) stop() {
	n.cmd.Process.Kill()
	n.cmd.Wait()
}

// alive reports whether the node process is still running (signal 0 probes
// without delivering; the cmd is unreaped until cleanup, so a dead node
// answers with ESRCH only after its Wait — probe the exit state instead).
func (n *node) alive() bool {
	return n.cmd.ProcessState == nil && n.cmd.Process.Signal(syscall.Signal(0)) == nil
}

// startNodes spawns count worker nodes and returns their addresses.
func startNodes(t *testing.T, count int) ([]*node, []string) {
	t.Helper()
	nodes := make([]*node, count)
	addrs := make([]string, count)
	for i := range nodes {
		nodes[i] = startNode(t)
		addrs[i] = nodes[i].addr
	}
	return nodes, addrs
}

// runTCP runs one campaign over a fresh TCP pool of the given width across
// the nodes, returning the result and the pool's death count. then (when
// non-nil) sees every delivered trial's index.
func runTCP(t *testing.T, addrs []string, shards int, app campaign.App, trials int, seed uint64, then func(i int)) (observed, int) {
	t.Helper()
	p, err := shard.NewTCPPool(shards, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var o observed
	o.Result, err = p.Run(context.Background(), campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithCache(nil), collect(&o.trs, then)))
	if err != nil {
		t.Fatal(err)
	}
	return o, p.Deaths()
}

// TestTCPNodeKilledReassigns: SIGKILL an entire worker node mid-campaign.
// Every session dialed to it breaks at once; each orphaned range feeds the
// ordinary reassignment path and the respawn redials the surviving node —
// the campaign finishes bit-identical with no holes or duplicates, and well
// before the silence deadline would have noticed the dead sessions.
func TestTCPNodeKilledReassigns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker-node processes")
	}
	const trials = 240
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 13)
	nodes, addrs := startNodes(t, 2)

	var once sync.Once
	start := time.Now()
	res, deaths := runTCP(t, addrs, 4, app, trials, 13, func(int) {
		once.Do(func() { nodes[1].cmd.Process.Kill() })
	})
	assertPromptDeath(t, time.Since(start))
	assertIdentical(t, res, ref, "node-kill")
	if deaths == 0 {
		t.Fatal("pool counted no deaths despite a killed worker node")
	}
	if res.Counts.HarnessFault != 0 {
		t.Fatalf("node kill must not surface a HarnessFault: %+v", res.Counts)
	}
	if !nodes[0].alive() {
		t.Fatal("surviving node died during the campaign")
	}
}

// TestTCPChaosDroppedConnection: a coordinator-side recv fault drops one
// worker connection mid-stream — the network-partition case. The reader runs
// the ordinary workerGone path, the range re-executes on a fresh session, and
// the tables stay bit-identical.
func TestTCPChaosDroppedConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker-node processes")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 31)
	_, addrs := startNodes(t, 2)

	chaos.Arm("shard.transport.recv", chaos.Fault{Kind: chaos.ErrKind, After: 10, Count: 1})
	defer chaos.Reset()
	res, deaths := runTCP(t, addrs, 2, app, trials, 31, nil)
	assertIdentical(t, res, ref, "dropped conn")
	if deaths != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the dropped session", deaths)
	}
	if res.Counts.HarnessFault != 0 {
		t.Fatalf("transient drop must not surface a HarnessFault: %+v", res.Counts)
	}
}

// TestTCPChaosSlowDial: injected dial latency (well under the dial timeout)
// must cost only wall clock — no deaths, no divergence. Slowness is not
// death, on the network as in-process.
func TestTCPChaosSlowDial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker-node processes")
	}
	const trials = 48
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 35)
	_, addrs := startNodes(t, 2)

	chaos.Arm("shard.transport.dial", chaos.Fault{Kind: chaos.Sleep, Sleep: 300 * time.Millisecond, Count: 2})
	defer chaos.Reset()
	res, deaths := runTCP(t, addrs, 2, app, trials, 35, nil)
	assertIdentical(t, res, ref, "slow dial")
	if deaths != 0 {
		t.Fatalf("slow dials killed %d workers; slowness is not death", deaths)
	}
}

// TestTCPChaosTornFrame: a worker node flushes half a gob frame and drops the
// connection (the node-side tear seam). The coordinator's decoder fails
// mid-frame, the session is reaped like any death, the node itself survives
// to serve the respawned session, and no partial frame reaches the merger.
func TestTCPChaosTornFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker-node processes")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 37)

	t.Setenv(chaos.EnvVar, "shard.transport.send:tear") // inherited by the nodes
	t.Cleanup(chaos.Reset)                              // in case this process's env load armed it too
	nodes, addrs := startNodes(t, 2)
	res, deaths := runTCP(t, addrs, 2, app, trials, 37, nil)
	assertIdentical(t, res, ref, "torn tcp frame")
	if deaths == 0 {
		t.Fatal("pool counted no deaths despite torn frames")
	}
	for i, n := range nodes {
		if !n.alive() {
			t.Fatalf("node %d died; a torn frame must only kill the session", i)
		}
	}
}

// TestTCPChaosHungSession: a worker node hangs inside the first range it is
// assigned, alive but sending nothing. The coordinator must close that
// session at its read deadline and reassign the range; the node survives (only
// the session's goroutine is wedged) and serves the respawned session, and
// the tables stay bit-identical.
func TestTCPChaosHungSession(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker-node process and waits out a stall deadline")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 39)

	t.Setenv(chaos.EnvVar, "shard.worker.range:hang:count=1") // inherited by the node
	t.Cleanup(chaos.Reset)                                    // in case this process's env load armed it too
	nodes, addrs := startNodes(t, 1)
	p, err := shard.NewTCPPool(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shard.SetDeadlines(p, 1200*time.Millisecond)
	var res observed
	res.Result, err = p.Run(context.Background(), campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(39),
		campaign.WithCache(nil), collect(&res.trs, nil)))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, res, ref, "hung tcp session")
	if d := p.Deaths(); d != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the hung session", d)
	}
	if !nodes[0].alive() {
		t.Fatal("node died; a hung session must only cost the session")
	}
}
