// Package libtest is test support: its name ends in "test", so the gate
// skips it.
package libtest

// Helper has no caller at all.
func Helper() {}
