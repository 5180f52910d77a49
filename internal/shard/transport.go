package shard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
)

// Transport: every worker is a session on a stream socket, speaking the gob
// protocol of wire.go and served by serveSession (worker.go). The coordinator
// reaches a session one of two ways, and past the dial the two are one conn:
//
//   - dialLocal re-execs this binary with one end of a socketpair as the
//     child's fd 3 — the single-machine fan-out (NewPool);
//   - dialNode connects a long-lived worker node (fi-campaign -shard-listen)
//     over TCP — the cluster fan-out (NewTCPPool).
//
// So every coordinator behavior — progress deadlines, reassignment on death,
// retry budgets, HarnessFault isolation — is the same code over both. A
// worker's progress deadline is its session socket's read deadline: the
// coordinator arms it while the worker holds a range and clears it while the
// worker idles. A worker silent past it is stopped by closing its session
// (and killing the process, when the worker is local); a dead worker, local
// or remote, is a broken stream its reader sees.
//
// Chaos seams (internal/chaos): shard.transport.dial (refused/slow node
// dials), shard.transport.send / shard.transport.recv (the coordinator drops
// a session mid-campaign), and the worker-side tear seam on
// shard.transport.send (worker.go: half a frame is flushed, then the session
// closes).

// dialTimeout bounds one TCP dial attempt; the pool's bounded-backoff spawn
// retry wraps the dial, so a dead node costs a few timeouts before the spawn
// fails over to the remaining budget.
const dialTimeout = 10 * time.Second

// conn is the coordinator's side of one worker session. send is used only
// under the pool lock and recv only from the worker's reader, so neither
// needs a lock of its own. Any send/recv error means the worker is gone.
type conn struct {
	nc  net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	cmd *exec.Cmd // the local worker process; nil for a session on a node
}

// newConn wraps a connected socket.
func newConn(nc net.Conn, cmd *exec.Cmd) *conn {
	return &conn{nc: nc, enc: gob.NewEncoder(nc), dec: gob.NewDecoder(nc), cmd: cmd}
}

// send encodes one req. An armed shard.transport.send fault drops the
// session first — what a mid-campaign network partition produces.
func (c *conn) send(r *req) error {
	if err := chaos.Err("shard.transport.send"); err != nil {
		c.nc.Close()
		return err
	}
	return c.enc.Encode(r)
}

// recv decodes one frame. An armed shard.transport.recv fault drops the
// session, feeding the reader's workerGone path.
func (c *conn) recv(f *frame) error {
	if err := chaos.Err("shard.transport.recv"); err != nil {
		c.nc.Close()
		return err
	}
	return c.dec.Decode(f)
}

// stop ends the session now: the socket closes, so the reader sees the
// worker gone, and a local worker's process is killed — a wedged trial loop
// never reaches a point where it would notice the close.
func (c *conn) stop() {
	c.nc.Close()
	if c.cmd != nil {
		c.cmd.Process.Kill()
	}
}

// closeWrite half-closes the session: the worker sees EOF, ships its final
// frameExit and ends the session — the clean drain.
func (c *conn) closeWrite() {
	c.nc.(interface{ CloseWrite() error }).CloseWrite()
}

// release stops the session and reaps a local worker's process. Called once
// the reader has drained the session (cmd.Wait waits for its stderr copy).
func (c *conn) release() {
	c.stop()
	if c.cmd != nil {
		c.cmd.Wait()
	}
}

// dialLocal re-execs this binary as worker index: the child inherits the
// environment (FI_CHAOS crosses the boundary here) plus the worker marker and
// its shard index, which the chaos w= filter keys on; its stderr lines get
// the index as a prefix; and one end of a socketpair becomes its fd 3, on
// which MaybeWorker serves the session.
//
// Both ends are created close-on-exec, so the child's end reaches fd 3
// through ExtraFiles only. Otherwise a worker forked by a concurrent respawn
// would inherit another worker's end, and that worker's death would never
// reach its reader as EOF.
func dialLocal(index int) (*conn, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socketpair: %w", err)
	}
	ours, theirs := os.NewFile(uintptr(fds[0]), "shard"), os.NewFile(uintptr(fds[1]), "shard-worker")
	defer theirs.Close()
	nc, err := net.FileConn(ours)
	ours.Close()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1", fmt.Sprintf("%s=%d", chaos.WorkerEnv, index))
	cmd.Stderr = &prefixWriter{dst: os.Stderr, prefix: fmt.Sprintf("[shard %d] ", index)}
	cmd.ExtraFiles = []*os.File{theirs}
	if err := cmd.Start(); err != nil {
		nc.Close()
		return nil, err
	}
	return newConn(nc, cmd), nil
}

// dialNode connects one worker session on the node at addr.
func dialNode(addr string) (*conn, error) {
	chaos.Point("shard.transport.dial") // sleep-armed: the slow-dial case
	if err := chaos.Err("shard.transport.dial"); err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc, nil), nil
}

// NewPool spawns n local worker processes (n < 1 ⇒ 1) by re-executing this
// binary with the worker marker set. Workers idle until Run assigns ranges
// and survive across campaigns until Close.
//
// Spawns are retried with bounded backoff. If no worker at all can be
// spawned NewPool fails fast with an error naming the worker index and the
// cause; if some spawned, the pool degrades to the partial fleet with a
// warning (results are unaffected — workers only decide where trials run).
func NewPool(n int) (*Pool, error) { return newPool(n, dialLocal) }

// NewTCPPool is NewPool over remote worker nodes: n worker sessions (n < 1 ⇒
// one per node) dialed round-robin across the node addresses, a failed dial
// retrying on the next node. Everything else — determinism, cache sharing via
// a common CacheDir, cancellation, reassignment, retry budgets — is the Pool
// contract, unchanged.
func NewTCPPool(n int, nodes []string) (*Pool, error) {
	if len(nodes) == 0 {
		return nil, errors.New("shard: NewTCPPool needs at least one node address")
	}
	if n < 1 {
		n = len(nodes)
	}
	nodes = append([]string(nil), nodes...)
	var next atomic.Uint64
	return newPool(n, func(int) (*conn, error) {
		return dialNode(nodes[(next.Add(1)-1)%uint64(len(nodes))])
	})
}

// OpenPool opens the pool the drivers' -shards / -shard-nodes flags describe:
// sessions on the comma-separated worker nodes when nodes is non-empty (n
// sizes the session count, 0 ⇒ one per node), n re-exec'd local workers when
// only n > 0, and no pool (nil, nil ⇒ run in-process) otherwise.
func OpenPool(n int, nodes string) (*Pool, error) {
	switch {
	case nodes != "":
		var addrs []string
		for _, a := range strings.Split(nodes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		return NewTCPPool(n, addrs)
	case n > 0:
		return NewPool(n)
	}
	return nil, nil
}

// prefixWriter tags every stderr line a local worker writes with its shard
// index, so interleaved multi-worker diagnostics stay attributable.
type prefixWriter struct {
	mu     sync.Mutex
	dst    io.Writer
	prefix string
	buf    []byte // partial line carried across writes
}

func (pw *prefixWriter) Write(b []byte) (int, error) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.buf = append(pw.buf, b...)
	for {
		i := bytes.IndexByte(pw.buf, '\n')
		if i < 0 {
			break
		}
		io.WriteString(pw.dst, pw.prefix)
		pw.dst.Write(pw.buf[:i+1])
		pw.buf = pw.buf[i+1:]
	}
	if len(pw.buf) > 4096 { // don't buffer a runaway unterminated line
		io.WriteString(pw.dst, pw.prefix)
		pw.dst.Write(pw.buf)
		io.WriteString(pw.dst, "\n")
		pw.buf = pw.buf[:0]
	}
	return len(b), nil
}
