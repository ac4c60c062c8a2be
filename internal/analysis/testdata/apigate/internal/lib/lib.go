// Package lib holds one case of each rule of the exported-API gate:
// every declaration carrying a want comment is a finding, every other
// exported one is exempt.
package lib

import (
	"errors"
	"fmt"
)

// Flagged: nothing references it.
func Unused() {} // want `lib\.Unused has no caller outside its package`

// Flagged: only its own package calls it.
func OnlyInside() {} // want `lib\.OnlyInside has no caller outside its package`

// Flagged: only a test file of another package calls it.
func OnlyTests() {} // want `lib\.OnlyTests has no caller outside its package`

// Flagged: a mark must give a reason.
//
//repro:api
func EmptyMark() {} // want `lib\.EmptyMark: //repro:api needs a reason`

// Kept: a command calls it.
func UsedByCommand() { helper() }

// Kept: another internal package calls it.
func UsedByPackage() {}

// Kept: a command takes it as a value.
func UsedAsValue() {}

// Kept: a command calls an instance of it.
func Generic[E any](e E) E { return e }

// Kept: the mark gives a reason.
//
//repro:api kept for a consumer that is not written yet
func Marked() {}

func helper() { OnlyInside() }

// T satisfies iface.Doer and fmt.Stringer.
type T struct{}

// Kept: T satisfies the module's iface.Doer through it.
func (T) Do() {}

// Kept: T satisfies the standard library's fmt.Stringer through it.
func (T) String() string { return fmt.Sprint("T") }

// Flagged: a method no interface needs and nothing outside calls.
func (T) Helper() {} // want `lib\.T\.Helper has no caller outside its package`

// E is an error with the methods package errors looks for.
type E struct{ err error }

// Kept: E satisfies error.
func (e *E) Error() string { return "e" }

// Kept: errors.Unwrap's unnamed interface.
func (e *E) Unwrap() error { return e.err }

// Kept: errors.Is's unnamed interface.
func (e *E) Is(target error) bool { return errors.Is(e.err, target) }

// Kept: errors.As's unnamed interface.
func (e *E) As(target any) bool { return false }
