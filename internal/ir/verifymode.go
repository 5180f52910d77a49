package ir

import (
	"fmt"
	"testing"
)

// VerifyError is the panic/error value raised when a pipeline stage breaks a
// verifier invariant. Stage names the pass that just ran ("opt/licm",
// "legalize/split-critical-edges", "codegen/isel", "instrument-machine/REFINE"),
// so a broken pass is identified at the point of corruption rather than
// wherever the damage finally crashes. Fn is the offending function, "" for
// module-level failures.
type VerifyError struct {
	Stage string
	Fn    string
	Err   error
}

func (e *VerifyError) Error() string {
	if e.Fn != "" {
		return fmt.Sprintf("verify failed after %s in func %s: %v", e.Stage, e.Fn, e.Err)
	}
	return fmt.Sprintf("verify failed after %s: %v", e.Stage, e.Err)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// verifyEach gates inter-pass verification: IR checks between every opt pass
// and after legalization, plus the MIR checkpoints in the backend. On in test
// binaries (every `go test` run exercises the full pipeline with checks on);
// production binaries keep the checks off unless a flag (refinec -verify-ir)
// turns them on, since builds are content-cached and the steady-state cost
// would be pure overhead.
var verifyEach = testing.Testing()

// VerifyEachEnabled reports whether inter-pass pipeline verification is on.
func VerifyEachEnabled() bool { return verifyEach }

// SetVerifyEach overrides the test-binary default (used by refinec's
// -verify-ir flag). Not safe to toggle concurrently with builds.
func SetVerifyEach(on bool) { verifyEach = on }
