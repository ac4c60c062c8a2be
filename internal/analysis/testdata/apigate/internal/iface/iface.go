// Package iface declares an interface of the module.
package iface

// Doer is satisfied by lib.T.
type Doer interface{ Do() }

// Run calls d.Do.
func Run(d Doer) { d.Do() }
