// Package chaos is a fault-injection harness for the harness itself: named
// failure points threaded through the shard pool, the campaign runtime and
// the disk cache, armed only in chaos tests (or via the FI_CHAOS environment
// variable) and free when disarmed. It is how the runtime's own failure
// handling — hung-worker detection, retry/backoff, cache quarantine,
// journal resume — is exercised deterministically instead of hoped about:
// every resilience behavior has a chaos test that injects the fault and
// asserts the final tables are bit-identical to the fault-free run.
//
// A failure point is a call site like
//
//	chaos.Point("shard.worker.range")         // may hang, sleep, or kill the process
//	chaos.PointN("shard.worker.trial", i)     // same, matchable on the trial index
//	if err := chaos.Err("campaign.cache.load"); err != nil { ... }
//	if chaos.Tearing("shard.worker.send") { /* write a partial frame, then die */ }
//	chaos.Corrupt("campaign.cache.stored", path)  // may truncate / bit-flip the file
//
// When nothing is armed every call is a single atomic load, so production
// builds pay nothing measurable for carrying the seams.
//
// Faults are armed programmatically (Arm, for in-process tests) or through
// the FI_CHAOS environment variable, which crosses the process boundary to
// re-exec'd shard workers:
//
//	FI_CHAOS='shard.worker.trial:crash:after=5:w=0;campaign.cache.load:err:count=2'
//
// Spec grammar: semicolon-separated faults, each `point:kind[:k=v]...`.
// Kinds: hang (block forever), crash (os.Exit(3)), kill (SIGKILL self —
// the abrupt-death case, nothing flushes), err (Err returns ErrInjected),
// sleep (delay; ms=N), tear (Tearing reports true once), truncate / bitrot
// (Corrupt mutates the file). Options: after=N (fire starting at the N-th
// hit of the point, 1-based; default 1), count=N (fire on that many hits;
// default 1, hang is sticky anyway), ms=N (sleep milliseconds, default 50),
// at=N (PointN only: fire only when the call's argument equals N),
// w=N (arm only in the shard worker whose FI_SHARD_INDEX is N — the seam
// the pool sets on every spawned worker — so a fleet-wide FI_CHAOS can
// still target one worker).
package chaos

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// EnvVar carries a chaos spec across process boundaries: re-exec'd shard
// workers inherit the coordinator's environment, so one spec can arm faults
// in a whole worker fleet (filtered per worker with the w= option).
const EnvVar = "FI_CHAOS"

// WorkerEnv is set by the shard pool on each worker it spawns (its shard
// index); faults armed with w=N fire only in that worker.
const WorkerEnv = "FI_SHARD_INDEX"

// ErrInjected is the error Err returns when an err-kind fault fires. It is
// deliberately distinguishable so retry loops under test can count it.
var ErrInjected = fmt.Errorf("chaos: injected fault")

// Kind enumerates the injectable failure modes.
type Kind uint8

const (
	// Hang blocks the calling goroutine forever (a silent worker: the
	// process stays alive but makes no progress — SIGTERM's context
	// cancellation cannot unwedge it, forcing the coordinator's kill
	// escalation).
	Hang Kind = iota
	// Crash exits the process with code 3 (an abrupt but flushing death).
	Crash
	// Kill SIGKILLs the calling process: nothing flushes, no handlers run —
	// the external-kill case.
	Kill
	// ErrKind makes Err return ErrInjected (a transient I/O failure).
	ErrKind
	// Sleep delays the calling goroutine (a slow worker / slow disk).
	Sleep
	// Tear makes Tearing report true: the caller is expected to emit a
	// partial write and die, simulating a torn stdio frame.
	Tear
	// Truncate makes Corrupt cut the named file in half (a torn cache
	// write / partial flush hitting disk).
	Truncate
	// Bitrot makes Corrupt flip one bit in the middle of the named file.
	Bitrot
)

var kindNames = map[string]Kind{
	"hang": Hang, "crash": Crash, "kill": Kill, "err": ErrKind,
	"sleep": Sleep, "tear": Tear, "truncate": Truncate, "bitrot": Bitrot,
}

func (k Kind) String() string {
	for n, v := range kindNames {
		if v == k {
			return n
		}
	}
	return "?"
}

// Fault describes one armed failure: what happens, on which hits of the
// point, and in which process.
type Fault struct {
	Kind  Kind
	After int           // first firing hit, 1-based (0 ⇒ 1)
	Count int           // number of firing hits (0 ⇒ 1)
	Sleep time.Duration // Sleep kind delay (0 ⇒ 50ms)
	At    int64         // PointN argument filter (armed via at=; -1 ⇒ any)
	HasAt bool
	// Worker restricts the fault to the shard worker with this
	// FI_SHARD_INDEX (-1 ⇒ any process).
	Worker int

	// matched counts the hits this fault's At filter accepted, so the
	// After/Count window of an at=-armed fault ranges over matching calls
	// rather than every call of the point (guarded by the package mu).
	matched int
}

// point is the armed per-name state.
type point struct {
	faults []Fault
	hits   atomic.Int64
}

var (
	mu      sync.Mutex
	points  map[string]*point
	armed   atomic.Bool // fast-path gate: false ⇒ every seam is a no-op
	envOnce sync.Once
	exit    = os.Exit // test seam
)

// Enabled reports whether any fault is armed in this process.
func Enabled() bool {
	loadEnv()
	return armed.Load()
}

// Arm installs a fault at a named point (tests; production arming goes
// through FI_CHAOS). Multiple faults may be armed at one point.
func Arm(name string, f Fault) {
	if f.After <= 0 {
		f.After = 1
	}
	if f.Count <= 0 {
		f.Count = 1
	}
	if f.Sleep <= 0 {
		f.Sleep = 50 * time.Millisecond
	}
	if !f.HasAt {
		f.At = -1
	}
	mu.Lock()
	if points == nil {
		points = map[string]*point{}
	}
	p := points[name]
	if p == nil {
		p = &point{}
		points[name] = p
	}
	p.faults = append(p.faults, f)
	mu.Unlock()
	armed.Store(true)
}

// Reset disarms everything and clears hit counters (tests).
func Reset() {
	mu.Lock()
	points = nil
	mu.Unlock()
	armed.Store(false)
}

// loadEnv arms the FI_CHAOS spec once per process.
func loadEnv() {
	envOnce.Do(func() {
		spec := os.Getenv(EnvVar)
		if spec == "" {
			return
		}
		if err := ArmSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: ignoring bad %s: %v\n", EnvVar, err)
		}
	})
}

// ArmSpec parses and arms a FI_CHAOS-grammar spec (see the package comment).
// Faults whose w= filter names a different shard index than this process's
// FI_SHARD_INDEX are skipped.
func ArmSpec(spec string) error {
	self := -1
	if s := os.Getenv(WorkerEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			self = n
		}
	}
	for _, one := range strings.Split(spec, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		parts := strings.Split(one, ":")
		if len(parts) < 2 {
			return fmt.Errorf("fault %q: want point:kind[:k=v]...", one)
		}
		name := parts[0]
		kind, ok := kindNames[parts[1]]
		if !ok {
			return fmt.Errorf("fault %q: unknown kind %q", one, parts[1])
		}
		f := Fault{Kind: kind, Worker: -1}
		for _, opt := range parts[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("fault %q: bad option %q", one, opt)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("fault %q: option %q: %v", one, opt, err)
			}
			switch k {
			case "after":
				f.After = int(n)
			case "count":
				f.Count = int(n)
			case "ms":
				f.Sleep = time.Duration(n) * time.Millisecond
			case "at":
				f.At, f.HasAt = n, true
			case "w":
				f.Worker = int(n)
			default:
				return fmt.Errorf("fault %q: unknown option %q", one, opt)
			}
		}
		if f.Worker >= 0 && f.Worker != self {
			continue
		}
		Arm(name, f)
	}
	return nil
}

// fire evaluates one hit of a named point and returns the fault that fires,
// if any. Hit counters advance per call regardless of filters, so after=
// means "the N-th call of this point in this process".
func fire(name string, arg int64) *Fault {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return nil
	}
	hit := int(p.hits.Add(1))
	mu.Lock()
	defer mu.Unlock()
	for i := range p.faults {
		f := &p.faults[i]
		if f.HasAt {
			// The window counts matching calls: at=17:after=2 means "the
			// second time the point sees argument 17", not "hit 2 overall".
			if f.At != arg {
				continue
			}
			f.matched++
			if f.matched < f.After || f.matched >= f.After+f.Count {
				continue
			}
			return f
		}
		if hit < f.After || hit >= f.After+f.Count {
			continue
		}
		return f
	}
	return nil
}

// act services a fired fault's process-level behaviors. Err/Tear/Corrupt
// kinds are handled by their dedicated entry points.
func act(name string, f *Fault) {
	switch f.Kind {
	case Hang:
		// Block forever: a silent worker. Deliberately ignores context and
		// signals — only process death (the coordinator's kill escalation)
		// ends it.
		select {}
	case Crash:
		fmt.Fprintf(os.Stderr, "chaos: %s: injected crash\n", name)
		exit(3)
	case Kill:
		// The abrupt case: no flushing, no handlers — indistinguishable
		// from an external SIGKILL or an OOM kill.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; SIGKILL cannot be handled
	case Sleep:
		time.Sleep(f.Sleep)
	}
}

// Point evaluates one hit of a named failure point, servicing hang, crash,
// kill, and sleep faults. A no-op (one atomic load) when nothing is armed.
func Point(name string) {
	loadEnv()
	if f := fire(name, -1); f != nil {
		act(name, f)
	}
}

// PointN is Point with an argument (a trial index, a frame number) that
// at=-armed faults match against, so a fault can target "trial 17" rather
// than "the 17th hit in this process".
func PointN(name string, arg int64) {
	loadEnv()
	if f := fire(name, arg); f != nil {
		act(name, f)
	}
}

// Err evaluates one hit of an I/O failure point: err-kind faults return
// ErrInjected (for retry loops under test); hang/crash/kill/sleep faults are
// serviced as in Point.
func Err(name string) error {
	loadEnv()
	f := fire(name, -1)
	if f == nil {
		return nil
	}
	if f.Kind == ErrKind {
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
	act(name, f)
	return nil
}

// Tearing reports whether a tear fault fires at this hit: the caller is
// expected to emit a partial write and terminate the process, simulating a
// torn frame on a pipe or a half-flushed file.
func Tearing(name string) bool {
	loadEnv()
	f := fire(name, -1)
	return f != nil && f.Kind == Tear
}

// Corrupt services truncate/bitrot faults against a file that was just
// written: truncate cuts it in half, bitrot flips a bit in the middle.
// Errors are deliberately ignored — chaos must never fail the run path it
// is injected into, only corrupt its artifacts.
func Corrupt(name, path string) {
	loadEnv()
	f := fire(name, -1)
	if f == nil {
		return
	}
	switch f.Kind {
	case Truncate:
		if fi, err := os.Stat(path); err == nil {
			os.Truncate(path, fi.Size()/2)
		}
	case Bitrot:
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			data[len(data)/2] ^= 0x20
			os.WriteFile(path, data, 0o644)
		}
	default:
		act(name, f)
	}
}

// Points lists the armed point names (diagnostics, tests).
func Points() []string {
	mu.Lock()
	defer mu.Unlock()
	var out []string
	for n := range points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
