package spatialkeyword

// MutationEvent describes one applied mutation, as delivered to the
// observer installed with SetMutationObserver.
//
// ID is the engine-local object ID. Tag is the opaque tag recorded with
// the mutation (the sharded engine stores its global object ID there; 0
// otherwise). Point and Text are the object's stored values — for deletes
// they are loaded from the object store while the delete is applied, so
// observers see the full object either way. Point is only valid for the
// duration of the observer call; copy it to retain it.
type MutationEvent struct {
	Delete bool
	ID     uint64
	Tag    uint64
	Point  []float64
	Text   string
}

// SetMutationObserver installs fn to run after every successfully applied
// mutation — Add, Delete, and ApplyReplicated on a replica. The observer
// fires post-WAL and post-apply: a mutation that failed to log or failed
// to apply is never observed, so the observed stream is exactly the
// stream a crash recovery or a follower drain reproduces. WAL replay
// during OpenEngine does not fire the observer (it is installed on an
// already-open engine); install the observer — and register any standing
// queries — before serving traffic, on the leader and every replica, to
// keep their event streams identical.
//
// Like the replication hooks, fn runs synchronously on the mutating
// goroutine under the engine's exclusive lock: it must not block on I/O or
// call back into the engine. Passing nil removes the observer.
func (e *Engine) SetMutationObserver(fn func(MutationEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mutObserver = fn
}
