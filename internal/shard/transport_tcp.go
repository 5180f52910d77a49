package shard

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
)

// TCP transport: the cluster fan-out. A worker node is a long-lived process
// (fi-campaign -shard-listen, or any process calling ListenAndServe) that
// accepts coordinator connections and serves each as an independent worker
// session speaking exactly the stdio wire protocol — gob reqs in, frames out.
// The coordinator (fi-campaign -shard-nodes host:port,...) dials one Conn per
// pool worker, round-robin across the node list.
//
// Signal semantics map onto the connection: Terminate and Kill close the
// conn — the node session's context cancels when its conn breaks, so the
// remote trial loop stops exactly as a SIGTERM'd stdio worker's does, and
// the coordinator's reader sees the close and runs the ordinary
// workerGone/reassignment path. A worker node that dies entirely (the
// worker-node-kill test) breaks every conn dialed to it at once; each feeds
// reassignment, and respawns redial the surviving nodes.
//
// Chaos seams (internal/chaos): shard.transport.dial (refused/slow dials),
// shard.transport.accept (node drops a fresh connection),
// shard.transport.send / shard.transport.recv (coordinator-side connection
// drops mid-campaign), and a node-side tear seam on shard.transport.send
// (half a frame is flushed, then the conn closes — the torn-TCP-frame case).

// dialTimeout bounds one TCP dial attempt; the pool's bounded-backoff spawn
// retry wraps Dial, so a dead node costs a few timeouts before the spawn
// fails over to the remaining budget.
const dialTimeout = 10 * time.Second

// listenEnv, when set, turns MaybeWorker into a TCP worker node listening on
// the given address — how tests re-exec themselves as node processes. The
// node prints "FI_SHARD_ADDR host:port" on stdout once the listener is up
// (the parent reads the resolved port when asked for :0).
const listenEnv = "FI_SHARD_LISTEN"

// TCPTransport dials worker sessions on a fixed set of node addresses,
// round-robin, so a pool of n workers spreads evenly over the nodes.
type TCPTransport struct {
	mu    sync.Mutex
	nodes []string
	next  int
}

// NewTCPTransport returns a Transport over the given "host:port" worker-node
// addresses (fi-campaign -shard-listen instances).
func NewTCPTransport(nodes []string) (*TCPTransport, error) {
	if len(nodes) == 0 {
		return nil, errors.New("shard: tcp transport needs at least one node address")
	}
	return &TCPTransport{nodes: append([]string(nil), nodes...)}, nil
}

func (t *TCPTransport) String() string { return "tcp:" + strings.Join(t.nodes, ",") }

// Dial connects the next node round-robin and introduces the worker's shard
// index with a hello req (the node session's log prefix and the return
// address of nothing — identity only; the chaos w= filter stays env-based,
// per node process).
func (t *TCPTransport) Dial(index int) (Conn, error) {
	t.mu.Lock()
	addr := t.nodes[t.next%len(t.nodes)]
	t.next++
	t.mu.Unlock()
	chaos.Point("shard.transport.dial") // sleep-armed: the slow-dial case
	if err := chaos.Err("shard.transport.dial"); err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &tcpConn{nc: nc, enc: gob.NewEncoder(nc), dec: gob.NewDecoder(nc), addr: addr}
	if err := c.Send(&req{Hello: &hello{Index: index}}); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// tcpConn is the coordinator's side of one worker session.
type tcpConn struct {
	nc   net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	addr string
}

// Send encodes one req. An armed shard.transport.send fault drops the
// connection first — the coordinator sees exactly what a mid-campaign
// network partition produces.
func (c *tcpConn) Send(r *req) error {
	if err := chaos.Err("shard.transport.send"); err != nil {
		c.nc.Close()
		return err
	}
	return c.enc.Encode(r)
}

// Recv decodes one frame. An armed shard.transport.recv fault drops the
// connection, feeding the reader's workerGone path.
func (c *tcpConn) Recv(f *frame) error {
	if err := chaos.Err("shard.transport.recv"); err != nil {
		c.nc.Close()
		return err
	}
	return c.dec.Decode(f)
}

// Terminate closes the connection: the node session's context cancels, its
// claimed range stops, and the coordinator reassigns — the network SIGTERM.
func (c *tcpConn) Terminate() { c.nc.Close() }

// Kill is Terminate over TCP; there is no harder stop for a socket (a truly
// wedged remote session is the node's problem — its conn is already gone).
func (c *tcpConn) Kill() { c.nc.Close() }

// CloseWrite half-closes the stream: the session sees EOF, ships its final
// frameExit, and ends — the clean drain, mirroring a closed stdin.
func (c *tcpConn) CloseWrite() error {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return c.nc.Close()
}

// Wait closes the socket; there is no process to reap.
func (c *tcpConn) Wait() { c.nc.Close() }

func (c *tcpConn) Pid() int { return 0 }

func (c *tcpConn) String() string { return c.addr }

// NewTCPPool is NewPool over remote worker nodes: n worker sessions (n < 1 ⇒
// one per node) dialed round-robin across the node addresses. Everything else
// — determinism, cache sharing via a common CacheDir, cancellation,
// reassignment, retry budgets — is the Pool contract, unchanged.
func NewTCPPool(n int, nodes []string) (*Pool, error) {
	t, err := NewTCPTransport(nodes)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		n = len(nodes)
	}
	return newPool(n, t)
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

// Node is a TCP worker node: a listener whose every accepted connection is
// served as an independent worker session until the peer disconnects. One
// node serves any number of coordinators and sessions concurrently; sessions
// are as isolated as stdio worker processes (private in-memory caches), and
// share builds through the content-addressed disk cache when the campaign
// spec names a CacheDir.
type Node struct {
	ln net.Listener
}

// Listen opens a worker-node listener on addr ("host:port"; port 0 picks a
// free port — read it back from Addr).
func Listen(addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard: listen %s: %w", addr, err)
	}
	return &Node{ln: ln}, nil
}

// Addr returns the node's resolved listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the listener; Serve returns. In-flight sessions finish on
// their own connections.
func (n *Node) Close() error { return n.ln.Close() }

// Serve accepts coordinator connections until the listener closes, serving
// each as a worker session in its own goroutine. An armed
// shard.transport.accept fault drops the fresh connection instead of serving
// it — the coordinator's dial succeeded but the session never speaks, so its
// reader EOFs and the spawn retries.
func (n *Node) Serve() error {
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("shard: accept: %w", err)
		}
		if cerr := chaos.Err("shard.transport.accept"); cerr != nil {
			fmt.Fprintf(os.Stderr, "shard node: dropping connection: %v\n", cerr)
			nc.Close()
			continue
		}
		go serveSession(nc)
	}
}

// ListenAndServe runs a worker node on addr until the process dies, announcing
// the resolved address through ready (nil ⇒ a stderr line). fi-campaign
// -shard-listen lands here.
func ListenAndServe(addr string, ready func(addr string)) error {
	n, err := Listen(addr)
	if err != nil {
		return err
	}
	if ready == nil {
		ready = func(a string) { fmt.Fprintf(os.Stderr, "shard node: listening on %s\n", a) }
	}
	ready(n.Addr())
	return n.Serve()
}

// serveSession runs one accepted connection as a worker session. The session
// context cancels when the connection breaks — a coordinator Terminate/Kill
// (conn close) stops the remote trial loop just as SIGTERM stops a stdio
// worker's — or when a send fails (the write side latches the first error
// and cancels, so a range whose frames have nowhere to go stops burning the
// node's cores).
func serveSession(nc net.Conn) {
	defer nc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newWorker(nc, &tearConnWriter{nc: nc})
	w.onSendErr = cancel
	if err := w.serve(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "shard node: session %d (%s): %v\n", w.index, nc.RemoteAddr(), err)
	}
}

// tearConnWriter is the node-side chaos seam for torn TCP frames: when a
// shard.transport.send tear fault fires, it flushes only half of the pending
// write and closes the connection — the coordinator sees a mid-frame gob
// error, exactly as if the network partitioned between two segments. Unlike
// the stdio tearWriter the node itself survives: only the session dies.
type tearConnWriter struct{ nc net.Conn }

func (t *tearConnWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && chaos.Tearing("shard.transport.send") {
		t.nc.Write(p[:len(p)/2])
		fmt.Fprintln(os.Stderr, "chaos: shard.transport.send: torn frame, closing conn")
		t.nc.Close()
		return 0, net.ErrClosed
	}
	return t.nc.Write(p)
}

// maybeNode turns this process into a TCP worker node when the listen marker
// is set (how tests re-exec node processes); called from MaybeWorker ahead of
// the stdio marker. The stdout announcement line is the parent's way to learn
// a :0 listener's resolved port.
func maybeNode() {
	addr := os.Getenv(listenEnv)
	if addr == "" {
		return
	}
	err := ListenAndServe(addr, func(a string) {
		fmt.Fprintf(os.Stdout, "FI_SHARD_ADDR %s\n", a)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shard node:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// sessionClosed reports whether a session decode error is a clean peer
// disconnect rather than a protocol failure.
func sessionClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}
