// Package gobwireservebad is a fi-lint fixture modeling the service-layer
// wire shapes (a coordinator→node request union and the streamed trial event)
// with wire mistakes: every `// want` line must be flagged by the gobwire
// analyzer.
package gobwireservebad

import (
	"bytes"
	"encoding/gob"
)

// Session is a non-empty interface; the package never calls gob.Register, so
// no concrete type can actually travel.
type Session interface {
	Addr() string
}

// Req is a submission union — exactly one variant set per message.
type Req struct {
	Hello *Hello
	Range *RangeReq
}

// Hello introduces a worker session.
type Hello struct {
	Index int
	conn  Session // want
}

// RangeReq claims a trial range; the notification channel can never encode.
type RangeReq struct {
	Lo, Hi int
	Notify chan int // want
}

// Event is one streamed trial frame; the callback field cannot encode and the
// interface field has no registered concrete types.
type Event struct {
	Kind    string
	Index   int
	OnTrial func()  // want
	Conn    Session // want
}

// Submit is the Encode root the analyzer discovers for Req.
func Submit(w *bytes.Buffer, r *Req) error {
	return gob.NewEncoder(w).Encode(r)
}

// Stream is the Encode root the analyzer discovers for Event.
func Stream(w *bytes.Buffer, e *Event) error {
	return gob.NewEncoder(w).Encode(e)
}
