// Fixture for the clusterctx analyzer: mutex-taking *core.Cluster
// methods must not be reachable from cluster job bodies (self-deadlock).
// A body is recognized by its func(*core.Worker) error type at any call
// site — Cluster.Run itself, or any wrapper that forwards bodies to a
// cluster (the pooled-session shape of internal/serve).
package clusterctx

import (
	"context"

	"repro/internal/core"
)

// direct calls locking methods straight from the body literal.
func direct(cl *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		if err := cl.SetMode(core.TaskMode); err != nil { // want `Cluster.SetMode called from inside a cluster job body`
			return err
		}
		return cl.Close() // want `Cluster.Close called from inside a cluster job body`
	})
}

// reconfigure is a package-local helper that takes the cluster lock.
func reconfigure(cl *core.Cluster) error {
	return cl.SetMode(core.TaskMode)
}

// deepHelper adds a second hop to the chain.
func deepHelper(cl *core.Cluster) error {
	return reconfigure(cl)
}

// viaHelper reaches the lock through one call edge.
func viaHelper(cl *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		return reconfigure(cl) // want `reconfigure reaches Cluster.SetMode from inside a cluster job body`
	})
}

// viaTwoHops reaches it through two — the fixpoint, not a one-step scan.
func viaTwoHops(cl *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		return deepHelper(cl) // want `deepHelper reaches Cluster.SetMode from inside a cluster job body`
	})
}

// app shows the named-body form: Run(a.body) instead of a literal.
type app struct{ cl *core.Cluster }

func (a *app) body(w *core.Worker) error {
	return a.cl.Close()
}

func (a *app) run() error {
	return a.cl.Run(a.body) // want `job body body calls Cluster.Close`
}

// allowed exercises every lock-free method: Mode is the documented
// exception, and the read-only accessors plus Interrupt never touch the
// mutex. None of these may be flagged.
func allowed(cl *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		if cl.Mode() == core.TaskMode {
			_ = cl.Ranks()
			_ = cl.Rows()
		}
		cl.Interrupt()
		return w.Comm.Barrier()
	})
}

// otherCluster is the known-hard false-positive case: the analyzer is
// receiver-insensitive, so locking a DIFFERENT cluster from a body is
// flagged even though no lock is shared. This over-approximation is
// deliberate — two live clusters in one process is not a runtime shape,
// and the directive below is the escape hatch when it ever is.
func otherCluster(cl, other *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		return other.Close() // want `Cluster.Close called from inside a cluster job body`
	})
}

// otherClusterSuppressed is the same shape with the documented opt-out.
func otherClusterSuppressed(cl, other *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		//reprolint:ignore clusterctx distinct cluster, no shared lock
		return other.Close()
	})
}

// submit is the pooled-cluster wrapper shape: it forwards bodies to a
// cluster it owns, so its job-body-typed parameter marks every argument
// as running under the cluster lock — without the analyzer knowing
// "submit" by name.
func submit(cl *core.Cluster, body func(w *core.Worker) error) error {
	return cl.Run(body)
}

// viaWrapper passes a deadlocking literal through the wrapper instead of
// straight to Run.
func viaWrapper(cl *core.Cluster) error {
	return submit(cl, func(w *core.Worker) error {
		return cl.Convert(nil) // want `Cluster.Convert called from inside a cluster job body`
	})
}

// viaWrapperHelper reaches the lock through a helper from a wrapped body.
func viaWrapperHelper(cl *core.Cluster) error {
	return submit(cl, func(w *core.Worker) error {
		return reconfigure(cl) // want `reconfigure reaches Cluster.SetMode from inside a cluster job body`
	})
}

// viaWrapperNamed passes a named deadlocking body through the wrapper.
func viaWrapperNamed(a *app) error {
	return submit(a.cl, a.body) // want `job body body calls Cluster.Close`
}

// probe calls the Failed accessor, which takes the cluster lock — the
// pool-facing method must be as forbidden in a body as Mul or Close.
func probe(cl *core.Cluster) error {
	return cl.Run(func(w *core.Worker) error {
		if cl.Failed() != nil { // want `Cluster.Failed called from inside a cluster job body`
			return nil
		}
		return nil
	})
}

// contextVariants: the Context entry points take the same cluster lock
// as their plain counterparts — a deadline does not make a nested
// submission safe.
func contextVariants(ctx context.Context, cl *core.Cluster, y, x []float64) error {
	return cl.RunContext(ctx, func(w *core.Worker) error {
		if err := cl.MulContext(ctx, y, x, 1); err != nil { // want `Cluster.MulContext called from inside a cluster job body`
			return err
		}
		return cl.RunContext(ctx, func(w *core.Worker) error { return nil }) // want `Cluster.RunContext called from inside a cluster job body`
	})
}

// deadlineHelper reaches MulContext through a package-local call edge.
func deadlineHelper(ctx context.Context, cl *core.Cluster, y, x []float64) error {
	return cl.MulContext(ctx, y, x, 1)
}

// viaDeadlineHelper: the fixpoint must taint the Context variants too.
func viaDeadlineHelper(ctx context.Context, cl *core.Cluster, y, x []float64) error {
	return cl.Run(func(w *core.Worker) error {
		return deadlineHelper(ctx, cl, y, x) // want `deadlineHelper reaches Cluster.MulContext from inside a cluster job body`
	})
}

// wrapperAllowed: a clean body through the wrapper is not flagged.
func wrapperAllowed(cl *core.Cluster) error {
	return submit(cl, func(w *core.Worker) error {
		_ = cl.Mode()
		return w.Comm.Barrier()
	})
}
