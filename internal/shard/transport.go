package shard

// Transport abstraction: the coordinator's claim/reassign/merge machinery in
// pool.go speaks the gob frame protocol of wire.go to worker endpoints it
// knows only as Conns, dialed through a Transport. Two implementations exist:
//
//   - stdio (transport_stdio.go): re-exec this binary as a child process,
//     frames over its stdin/stdout — the original single-machine fan-out.
//   - tcp (transport_tcp.go): dial long-lived worker nodes
//     (fi-campaign -shard-listen) round-robin over the network — the
//     cluster fan-out.
//
// The contract is deliberately small so every coordinator behavior —
// progress-deadline detection, SIGTERM→SIGKILL escalation, range reassignment
// on death, retry budgets, HarnessFault isolation — works identically over
// both: a Conn only ever needs to carry frames, be told to stop, and be
// reaped.

// Conn is one live worker endpoint as the coordinator sees it.
//
// Send and Recv carry the wire protocol (one req down, frames back); each is
// used from a single goroutine (the pool's assignment path and the per-worker
// reader, respectively), so implementations need no internal locking between
// them. Any Send/Recv error means the worker is gone — the pool marks it dead
// and reassigns its range; there are no retryable transport errors at this
// layer (retries happen by redialing a replacement through the Transport).
//
// Terminate asks the worker to stop politely (SIGTERM for a process; a
// connection close for a remote node session — the network equivalent, since
// the session's context cancels when its conn breaks) and Kill escalates
// after the grace period. CloseWrite signals a clean drain: the worker ships
// its final frameExit and exits/ends the session. Wait reaps whatever the
// implementation must reap (a child process; nothing for a socket) and must
// only be called after the reader has drained Recv to EOF.
type Conn interface {
	Send(r *req) error
	Recv(f *frame) error
	Terminate()
	Kill()
	CloseWrite() error
	Wait()
	// Pid reports the worker's OS process id when the transport owns the
	// process (stdio), 0 when it doesn't (a remote node owns its own
	// lifetime). Pool.Pids skips zero entries.
	Pid() int
	String() string
}

// Transport dials worker Conns for a Pool. Dial is called once per worker the
// pool fields — including respawns after a death — with the worker's shard
// index (stable for the worker's lifetime; never reused). Implementations
// carry the index to the worker (environment for stdio, a hello req for tcp)
// so stderr prefixes and the chaos w= filter stay attributable.
//
// Dial is invoked under the pool's bounded-backoff spawn retry; a dial error
// is therefore transient-retryable by contract, and only repeated failure
// fails the spawn.
type Transport interface {
	Dial(index int) (Conn, error)
	String() string
}
