// Package pub is outside internal/, so the gate skips it.
package pub

// Exported has no caller at all.
func Exported() {}
