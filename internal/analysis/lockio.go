package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// lockIO enforces the no-I/O-under-lock discipline in the sharded engine,
// the core engine, the write-ahead log, the replication layer, and the
// fence registry: while a sync.Mutex or sync.RWMutex is held, no direct
// storage-device I/O (Read, ReadRun, Write, WriteRun) may run. A slow or
// faulted device call under a shard's RWMutex stalls every other query on
// that shard — the exact tail-latency failure the fan-out design of PR 1
// exists to avoid — under the WAL appender's mutex it would serialize
// every group commit behind the device, defeating group commit entirely,
// under the replication leader's ship-buffer mutex it would stall the
// write path of every stream, and under the fence registry's lock (held
// while evaluating standing queries on the mutation path) it would add
// device latency to every acknowledged write.
//
// The analysis is linear per function body: lock state is tracked in
// source order, deferred unlocks keep the mutex held to the end of the
// body, and function literals are scanned as their own context (a
// goroutine does not inherit its spawner's lock for blocking purposes).
type lockIO struct{}

func (lockIO) Name() string { return "lockio" }

func (lockIO) Doc() string {
	return "no storage-device I/O while holding a mutex in internal/shard, internal/core, internal/wal, internal/repl, internal/fence, or internal/nodecache"
}

// deviceIOMethods are the Device methods that perform (modeled) disk I/O.
var deviceIOMethods = map[string]bool{
	"Read": true, "ReadRun": true, "ReadRunInto": true, "ChargeRun": true, "Write": true, "WriteRun": true,
}

func (lockIO) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathHasSegments(pkg.Path, "internal/shard") && !pathHasSegments(pkg.Path, "internal/core") &&
			!pathHasSegments(pkg.Path, "internal/wal") && !pathHasSegments(pkg.Path, "internal/repl") &&
			!pathHasSegments(pkg.Path, "internal/fence") && !pathHasSegments(pkg.Path, "internal/nodecache") {
			continue
		}
		for _, f := range pkg.Files {
			for _, fb := range funcBodies(f) {
				diags = append(diags, scanLockRegion(prog, pkg, fb)...)
			}
		}
	}
	return diags
}

// mutexOp classifies a call as a lock or unlock on a sync mutex,
// returning the receiver expression's source form as the mutex key.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, delta int, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	var d int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		d = +1
	case "Unlock", "RUnlock":
		d = -1
	default:
		return "", 0, false
	}
	tv, okT := info.Types[sel.X]
	if !okT || tv.Type == nil {
		return "", 0, false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", 0, false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", 0, false
	}
	return types.ExprString(sel.X), d, true
}

// deviceIOCall reports whether the call is a direct device I/O method
// from internal/storage, returning its name for the diagnostic.
func deviceIOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if !fromStoragePkg(fn) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !deviceIOMethods[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

// scanLockRegion walks one function body in source order, tracking how
// many mutexes are held, and flags device I/O performed while any is.
func scanLockRegion(prog *Program, pkg *Package, fb funcBody) []Diagnostic {
	var diags []Diagnostic
	held := make(map[string]int)
	total := 0

	heldKeys := func() string {
		var keys []string
		for k, n := range held {
			if n > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return strings.Join(keys, ", ")
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Scanned independently by funcBodies; a literal's body runs
			// in its own goroutine/defer context.
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held for the rest of the
			// body, so skip it; anything else deferred is treated as
			// executing here (conservative for deferred I/O).
			if _, delta, ok := mutexOp(pkg.Info, n.Call); ok && delta < 0 {
				return false
			}
			return true
		case *ast.CallExpr:
			if key, delta, ok := mutexOp(pkg.Info, n); ok {
				if delta > 0 {
					held[key]++
					total++
				} else if held[key] > 0 {
					held[key]--
					total--
				}
				return true
			}
			if name, ok := deviceIOCall(pkg.Info, n); ok && total > 0 {
				diags = append(diags, Diagnostic{
					Pass: "lockio",
					Pos:  prog.Fset.Position(n.Pos()),
					Message: fmt.Sprintf("storage I/O (%s) in %s while holding %s; release the lock before touching the device",
						name, fb.name, heldKeys()),
				})
			}
		}
		return true
	}
	ast.Inspect(fb.body, walk)
	return diags
}
