package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// hotAlloc turns PR 8's runtime AllocsPerRun gates into compile-time
// diagnostics. A function annotated with
//
//	//skvet:hotpath
//
// in its doc comment declares itself part of the zero-allocation read hot
// path (packed R-Tree traversal, Sig64 kernels, the core iterators, the
// textutil byte kernels, the paper loop's objstore.GetFiltered). For every
// annotated function the pass shells out to `go build -gcflags=-m=2` —
// os/exec is stdlib, so the module's no-x/tools rule holds — parses the
// compiler's escape-analysis and inlining diagnostics, and reports:
//
//   - any heap escape inside the function, naming the escaping value and
//     the compiler's flow reason. Escapes on statements that return a
//     non-nil error are exempt: error construction is the cold path by
//     construction, and hoisting it out of the function would only move
//     the boxing, not remove it. The warm loop must stay clean.
//   - any call to a module-internal *leaf* function (one whose body
//     performs no calls of its own) that the compiler did not inline. A
//     leaf that outgrows the inlining budget re-introduces call overhead
//     on every node visit, which is exactly the regression the packed
//     layout exists to avoid.
//
// The build inherits the environment (GOFLAGS, GOCACHE, GOTOOLCHAIN), so
// a CI run that has already compiled the tree replays the cached
// diagnostics instead of recompiling cold. Unknown diagnostic lines are
// ignored (see m2parse.go), keeping the pass tolerant of compiler
// version skew.
type hotAlloc struct{}

func (hotAlloc) Name() string { return "hotalloc" }

func (hotAlloc) Doc() string {
	return "//skvet:hotpath functions must be free of heap escapes and non-inlined leaf calls (gated on go build -gcflags=-m=2)"
}

// hotpathMarker is the annotation, written as //skvet:hotpath in the
// function's doc comment.
const hotpathMarker = "skvet:hotpath"

// hotpathFunc is one annotated function.
type hotpathFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	name string
	file string
	// start/end are the line span of the declaration.
	start, end int
}

func (hotAlloc) Run(prog *Program) []Diagnostic {
	funcs := hotpathFuncs(prog)
	if len(funcs) == 0 {
		return nil
	}

	var diags []Diagnostic

	// Group the packages that contain annotations by module root so one
	// build covers each module.
	groups := make(map[string]map[string]bool) // module root → package dirs
	for _, hf := range funcs {
		if hf.pkg.Name == "main" {
			diags = append(diags, Diagnostic{
				Pass: "hotalloc", Pos: prog.Fset.Position(hf.decl.Pos()),
				Message: fmt.Sprintf("//skvet:hotpath on %s: main packages are not gated (go build would emit a binary); move the hot code into a library package", hf.name),
			})
			continue
		}
		root, err := findGoModRoot(hf.pkg.Dir)
		if err != nil {
			diags = append(diags, Diagnostic{
				Pass: "hotalloc", Pos: prog.Fset.Position(hf.decl.Pos()),
				Message: fmt.Sprintf("//skvet:hotpath on %s: %v", hf.name, err),
			})
			continue
		}
		if groups[root] == nil {
			groups[root] = make(map[string]bool)
		}
		groups[root][hf.pkg.Dir] = true
	}

	var facts []m2Fact
	var roots []string
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		var pats []string
		for dir := range groups[root] {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				continue
			}
			pats = append(pats, "./"+filepath.ToSlash(rel))
		}
		sort.Strings(pats)
		out, err := runEscapeBuild(root, pats)
		if err != nil {
			diags = append(diags, Diagnostic{
				Pass:    "hotalloc",
				Pos:     token.Position{Filename: filepath.Join(root, "go.mod"), Line: 1, Column: 1},
				Message: fmt.Sprintf("go build -gcflags=-m=2 %s failed: %v", strings.Join(pats, " "), err),
			})
			continue
		}
		facts = append(facts, parseM2Output(out, root)...)
	}

	idx := indexM2Facts(facts)
	declIdx := buildFuncDeclIndex(prog)
	for _, hf := range funcs {
		if hf.pkg.Name == "main" {
			continue
		}
		diags = append(diags, gateEscapes(prog, hf, idx)...)
		diags = append(diags, gateLeafCalls(prog, hf, idx, declIdx)...)
	}
	return diags
}

// runEscapeBuild compiles the given package dirs (relative to root) with
// escape/inlining diagnostics on and returns the combined output. The
// environment is inherited so GOFLAGS/GOCACHE apply and warm build caches
// replay the stored diagnostics.
func runEscapeBuild(root string, pats []string) (string, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, pats...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		// Compile errors mean no facts; surface the tail of the output.
		tail := string(out)
		if len(tail) > 500 {
			tail = "..." + tail[len(tail)-500:]
		}
		return "", fmt.Errorf("%v: %s", err, strings.TrimSpace(tail))
	}
	return string(out), nil
}

// findGoModRoot walks up from dir to the nearest go.mod.
func findGoModRoot(dir string) (string, error) {
	d := dir
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// hotpathFuncs collects every //skvet:hotpath-annotated declaration. The
// marker must appear in the function's doc comment (the comment group
// directly above the declaration).
func hotpathFuncs(prog *Program) []hotpathFunc {
	var out []hotpathFunc
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Doc == nil {
					continue
				}
				marked := false
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if strings.HasPrefix(text, hotpathMarker) {
						marked = true
						break
					}
				}
				if !marked {
					continue
				}
				start := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.End())
				out = append(out, hotpathFunc{
					pkg:   pkg,
					decl:  fd,
					name:  funcDisplayName(fd),
					file:  start.Filename,
					start: start.Line,
					end:   end.Line,
				})
			}
		}
	}
	return out
}

// funcDisplayName renders "Name" or "(Recv).Name" for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// m2Index holds the parsed facts in lookup form.
type m2Index struct {
	// escapes per file, sorted by line.
	escapes map[string][]m2Fact
	// inlined call sites: file:line -> callee names the compiler inlined.
	inlined map[string][]string
	// cannotInline reasons keyed by the function name the compiler used.
	noInline map[string]string
}

func indexM2Facts(facts []m2Fact) *m2Index {
	idx := &m2Index{
		escapes:  make(map[string][]m2Fact),
		inlined:  make(map[string][]string),
		noInline: make(map[string]string),
	}
	for _, f := range facts {
		switch f.Kind {
		case m2Escape:
			idx.escapes[f.Pos.Filename] = append(idx.escapes[f.Pos.Filename], f)
		case m2InlineCall:
			key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
			idx.inlined[key] = append(idx.inlined[key], f.What)
		case m2CannotInline:
			if _, ok := idx.noInline[f.What]; !ok {
				idx.noInline[f.What] = f.Reason
			}
		}
	}
	for file := range idx.escapes {
		es := idx.escapes[file]
		sort.Slice(es, func(i, j int) bool { return es[i].Pos.Line < es[j].Pos.Line })
	}
	return idx
}

// gateEscapes reports heap escapes inside an annotated function, skipping
// escapes that happen on error-returning statements (cold by
// construction).
func gateEscapes(prog *Program, hf hotpathFunc, idx *m2Index) []Diagnostic {
	var diags []Diagnostic
	for _, f := range idx.escapes[hf.file] {
		if f.Pos.Line < hf.start || f.Pos.Line > hf.end {
			continue
		}
		if onErrorReturn(prog, hf, f.Pos.Line) {
			continue
		}
		msg := fmt.Sprintf("heap escape in hotpath function %s: %s escapes to heap", hf.name, f.What)
		if f.Reason != "" {
			msg += " (" + f.Reason + ")"
		}
		diags = append(diags, Diagnostic{Pass: "hotalloc", Pos: f.Pos, Message: msg})
	}
	return diags
}

// onErrorReturn reports whether the given line falls inside a return
// statement that yields a non-nil error — the one place an annotated
// function may box values, because a taken error return has already left
// the hot path.
func onErrorReturn(prog *Program, hf hotpathFunc, line int) bool {
	sig, ok := hf.pkg.Info.Defs[hf.decl.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	errType := types.Universe.Lookup("error").Type()
	if !types.Identical(last, errType) {
		return false
	}
	cold := false
	ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
		if cold {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		start := prog.Fset.Position(ret.Pos()).Line
		end := prog.Fset.Position(ret.End()).Line
		if line < start || line > end {
			return true
		}
		lastExpr := ret.Results[len(ret.Results)-1]
		if id, isIdent := ast.Unparen(lastExpr).(*ast.Ident); isIdent && id.Name == "nil" {
			return true
		}
		cold = true
		return false
	})
	return cold
}

// funcDeclRef locates a function's declaration inside the program.
type funcDeclRef struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// buildFuncDeclIndex maps every declared function object to its AST.
func buildFuncDeclIndex(prog *Program) map[*types.Func]funcDeclRef {
	idx := make(map[*types.Func]funcDeclRef)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = funcDeclRef{pkg: pkg, decl: fd}
				}
			}
		}
	}
	return idx
}

// isLeafFunc reports whether the function body performs no calls of its
// own — builtins (len, append, …) and type conversions do not count.
// Leaves are the functions the inliner has no excuse to skip.
func isLeafFunc(ref funcDeclRef) bool {
	leaf := true
	ast.Inspect(ref.decl.Body, func(n ast.Node) bool {
		if !leaf {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if tv, ok := ref.pkg.Info.Types[fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, isBuiltin := ref.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		leaf = false
		return false
	})
	return leaf
}

// gateLeafCalls reports calls from an annotated function to
// module-internal leaf functions the compiler left as real calls.
func gateLeafCalls(prog *Program, hf hotpathFunc, idx *m2Index, declIdx map[*types.Func]funcDeclRef) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(hf.pkg.Info, call)
		if fn == nil {
			return true
		}
		ref, declared := declIdx[fn]
		if !declared || !isLeafFunc(ref) {
			return true
		}
		pos := prog.Fset.Position(call.Pos())
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		for _, what := range idx.inlined[key] {
			if what == fn.Name() || strings.HasSuffix(what, "."+fn.Name()) {
				return true // compiler inlined it
			}
		}
		msg := fmt.Sprintf("call to leaf function %s is not inlined in hotpath function %s", fn.Name(), hf.name)
		if reason := lookupNoInlineReason(idx, fn.Name()); reason != "" {
			msg += " (compiler: " + reason + ")"
		}
		diags = append(diags, Diagnostic{Pass: "hotalloc", Pos: pos, Message: msg})
		return true
	})
	return diags
}

// lookupNoInlineReason finds the compiler's cannot-inline reason for a
// function name, tolerating the "<Type>.name" forms -m=2 uses.
func lookupNoInlineReason(idx *m2Index, name string) string {
	if r, ok := idx.noInline[name]; ok {
		return r
	}
	var matches []string
	for what := range idx.noInline {
		if strings.HasSuffix(what, "."+name) {
			matches = append(matches, what)
		}
	}
	if len(matches) == 0 {
		return ""
	}
	sort.Strings(matches)
	return idx.noInline[matches[0]]
}
