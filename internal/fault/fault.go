// Package fault makes failure a first-class, injectable input of the
// simulation. Real sites fail transiently — flaky parallel filesystems,
// overloaded metadata servers, misconfigured stacks (§III.B of the paper) —
// and a migration framework that treats every probe or staging error as
// final both under-predicts readiness and leaves half-finished state
// behind. This package provides:
//
//   - a typed Fault error carrying a transient-vs-permanent classification,
//   - injectable fault policies (deterministic error rates, scripted
//     nth-operation failures, optional latency) that plug into the vfs
//     operation hook and wrap probe-program runners,
//   - a context-aware retry helper with capped attempts and exponential
//     backoff that retries only faults classified transient,
//   - a structured ProbeResult so the prediction pipeline can classify
//     probe failures (missing library vs. broken stack vs. transient site
//     wobble) without string matching.
//
// FEAM's engine uses Retry around probe runs and staging writes; tests and
// the testbed CLI use the injectors to simulate flaky sites and verify the
// system degrades gracefully instead of corrupting state.
package fault

import (
	"errors"
	"fmt"
)

// Class classifies a fault's persistence.
type Class int

const (
	// Permanent faults do not go away on retry (bad path, full disk,
	// misconfigured stack).
	Permanent Class = iota
	// Transient faults are momentary (timeout, overloaded filesystem); a
	// retry may succeed.
	Transient
)

func (c Class) String() string {
	switch c {
	case Permanent:
		return "permanent"
	case Transient:
		return "transient"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Fault is an injected or classified failure of one operation.
type Fault struct {
	// Class is the persistence classification.
	Class Class
	// Op names the failed operation ("write", "setattr", "probe", ...).
	Op string
	// Path is the operation's subject (a file path, a stack key, ...).
	Path string
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (f *Fault) Error() string {
	msg := fmt.Sprintf("%s fault: %s %s", f.Class, f.Op, f.Path)
	if f.Err != nil {
		msg += ": " + f.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// New returns a classified fault for an operation.
func New(class Class, op, path string) *Fault {
	return &Fault{Class: class, Op: op, Path: path}
}

// IsTransient reports whether err is (or wraps) a Fault classified
// transient. Every other error — including plain, unclassified errors — is
// treated as permanent: retrying an unknown failure is how half-staged
// state gets duplicated.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Class == Transient
}
